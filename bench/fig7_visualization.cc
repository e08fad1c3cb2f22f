// Reproduces paper Figure 7: contrastive-sample visualization on
// MNIST-superpixel-like digits 1, 2 and 6. For each digit we print the
// original intensity view, the per-node preservation probability of an
// RGCL-style learnable view generator, and SGCL's Lipschitz constants —
// plus a quantitative stroke-recovery AUC for both (how well each score
// ranks ground-truth stroke superpixels above background).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "baselines/view_generator.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/sgcl_trainer.h"
#include "data/superpixel.h"
#include "eval/metrics.h"

using namespace sgcl;
using namespace sgcl::bench;

namespace {

char Shade(float x) {
  static const char kRamp[] = " .:-=+*#%@";
  return kRamp[std::clamp(static_cast<int>(x * 10.0f), 0, 9)];
}

void PrintGridRow(const std::vector<float>& values, int gy,
                  std::string* out) {
  const float mx = std::max(1e-9f,
                            *std::max_element(values.begin(), values.end()));
  for (int gx = 0; gx < kSuperpixelGrid; ++gx) {
    *out += Shade(values[gy * kSuperpixelGrid + gx] / mx);
    *out += ' ';
  }
}

double StrokeAuc(const std::vector<float>& scores, const Graph& g) {
  std::vector<double> s(scores.begin(), scores.end());
  std::vector<int> y(g.semantic_mask().begin(), g.semantic_mask().end());
  return RocAuc(s, y);
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  // One figure, no rows: any --only is a usage error.
  std::string only;
  BenchScale scale = ParseArgs(argc, argv, /*rows=*/{}, &only);

  Stopwatch total;
  const int per_digit = scale.paper ? 40 : 12;
  GraphDataset digits = MakeSuperpixelDataset(per_digit, /*seed=*/77);

  // Train both methods on the same corpus.
  SgclConfig sgcl_cfg = ScaledSgclConfig(digits.feat_dim(), scale);
  sgcl_cfg.epochs = std::max(scale.pretrain_epochs, 20);
  // The superpixel graphs are small (49 nodes): use the exact masked
  // re-encoding generator, which visualizes the cleanest. The generator
  // tower's pooled contrastive term is disabled here: on single-channel
  // intensity graphs it concentrates K onto the few digit-*identity*
  // superpixels, whereas the visualization compares against the full
  // stroke mask — we want the pure Eq. 11 constants.
  sgcl_cfg.lipschitz_mode = LipschitzMode::kExact;
  sgcl_cfg.generator_loss_weight = 0.0f;
  SgclTrainer sgcl(sgcl_cfg, /*seed=*/3);
  const auto pretrain = sgcl.Pretrain(digits);
  SGCL_CHECK(pretrain.ok());

  BaselineConfig rgcl_cfg = ScaledBaselineConfig(digits.feat_dim(), scale, 3);
  rgcl_cfg.epochs = sgcl_cfg.epochs;
  LearnableViewBaseline rgcl(rgcl_cfg, ViewGenVariant::kRgcl);
  rgcl.Pretrain(digits, {});

  std::printf(
      "Figure 7 — per-node scores on MNIST-superpixel-like digits "
      "[mode=%s]\n(columns: intensity | RGCL keep prob | SGCL Lipschitz | "
      "ground truth)\n\n",
      scale.paper ? "paper" : "ci");

  double rgcl_auc_sum = 0.0, sgcl_auc_sum = 0.0;
  int count = 0;
  for (int digit : {1, 2, 6}) {
    // First sample of this digit.
    const Graph* g = nullptr;
    for (int64_t i = 0; i < digits.size(); ++i) {
      if (digits.graph(i).label() == digit) {
        g = &digits.graph(i);
        break;
      }
    }
    if (g == nullptr) continue;
    std::vector<float> intensity(g->num_nodes());
    for (int64_t v = 0; v < g->num_nodes(); ++v) {
      intensity[v] = g->feature(v, 0);
    }
    std::vector<float> rgcl_probs = rgcl.NodeKeepProbs(*g);
    std::vector<float> lipschitz = sgcl.model().NodeLipschitzConstants(*g);

    std::printf("digit %d:\n", digit);
    for (int gy = 0; gy < kSuperpixelGrid; ++gy) {
      std::string row;
      PrintGridRow(intensity, gy, &row);
      row += "  ";
      PrintGridRow(rgcl_probs, gy, &row);
      row += "  ";
      PrintGridRow(lipschitz, gy, &row);
      row += "  ";
      for (int gx = 0; gx < kSuperpixelGrid; ++gx) {
        row += g->semantic_mask()[gy * kSuperpixelGrid + gx] ? "# " : ". ";
      }
      std::printf("  %s\n", row.c_str());
    }
    const double ra = StrokeAuc(rgcl_probs, *g);
    const double sa = StrokeAuc(lipschitz, *g);
    std::printf("  stroke-recovery AUC: RGCL %.3f vs SGCL %.3f\n\n", ra, sa);
    rgcl_auc_sum += ra;
    sgcl_auc_sum += sa;
    ++count;
  }
  if (count > 0) {
    std::printf("mean stroke-recovery AUC: RGCL %.3f vs SGCL %.3f\n",
                rgcl_auc_sum / count, sgcl_auc_sum / count);
  }
  std::printf("total time: %.1fs\n", total.ElapsedSeconds());
  return 0;
}
