// Visualizes per-node Lipschitz constants on MNIST-superpixel-like digit
// graphs as ASCII heatmaps next to the ground-truth strokes (the paper's
// Fig. 7 idea in a terminal).
//
//   ./lipschitz_viz [digit] [seed]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/sgcl_trainer.h"
#include "data/superpixel.h"

using namespace sgcl;

namespace {

char Shade(float x) {
  static const char kRamp[] = " .:-=+*#%@";
  const int idx = std::clamp(static_cast<int>(x * 10.0f), 0, 9);
  return kRamp[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const int digit = argc > 1 ? std::atoi(argv[1]) : 2;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;

  GraphDataset digits = MakeSuperpixelDataset(/*per_digit=*/8, seed);
  SgclConfig config = MakeUnsupervisedConfig(digits.feat_dim());
  config.encoder.hidden_dim = 16;
  config.encoder.num_layers = 2;
  config.proj_dim = 16;
  config.epochs = 6;
  config.batch_size = 16;
  SgclTrainer trainer(config, seed);
  const auto pretrain = trainer.Pretrain(digits);
  SGCL_CHECK(pretrain.ok());

  // Pick the first sample of the requested digit.
  const Graph* g = nullptr;
  for (int64_t i = 0; i < digits.size(); ++i) {
    if (digits.graph(i).label() == digit) {
      g = &digits.graph(i);
      break;
    }
  }
  if (g == nullptr) {
    std::fprintf(stderr, "digit %d not found\n", digit);
    return 1;
  }
  std::vector<float> k = trainer.model().NodeLipschitzConstants(*g);
  const float kmax = *std::max_element(k.begin(), k.end());

  std::printf("digit %d — intensity | Lipschitz K | ground-truth strokes\n\n",
              digit);
  for (int gy = 0; gy < kSuperpixelGrid; ++gy) {
    std::string left, mid, right;
    for (int gx = 0; gx < kSuperpixelGrid; ++gx) {
      const int v = gy * kSuperpixelGrid + gx;
      left += Shade(g->feature(v, 0));
      left += ' ';
      mid += Shade(kmax > 0 ? k[v] / kmax : 0.0f);
      mid += ' ';
      right += g->semantic_mask()[v] ? "# " : ". ";
    }
    std::printf("%s   %s   %s\n", left.c_str(), mid.c_str(), right.c_str());
  }

  // Quantify: how well does K rank stroke nodes above background?
  double hits = 0.0, pairs = 0.0;
  for (size_t a = 0; a < k.size(); ++a) {
    for (size_t b = 0; b < k.size(); ++b) {
      if (g->semantic_mask()[a] && !g->semantic_mask()[b]) {
        pairs += 1.0;
        hits += (k[a] > k[b]) ? 1.0 : (k[a] == k[b] ? 0.5 : 0.0);
      }
    }
  }
  if (pairs > 0) {
    std::printf("\nstroke-recovery AUC of Lipschitz constants: %.3f\n",
                hits / pairs);
  }
  return 0;
}
