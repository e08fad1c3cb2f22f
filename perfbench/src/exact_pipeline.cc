// exact-pipeline: one Table III cell with the paper's exact generator.
//
// Set-up synthesizes a seeded PROTEINS-like set. Each measured round then
// runs, on identical inputs and seeds:
//   1. SgclTrainer::Pretrain in memory, LipschitzMode::kExact, GIN 3x32;
//   2. SgclModel::NodeLipschitzConstants on every graph (sgcl_cli scores);
//   3. SgclModel::EmbedGraphs, then SvmCrossValidate;
//   4. GraphCL (GclPretrainerBase::Pretrain) on the same data and epochs.
// Rounds repeat until the time budget is spent; timings are medians over
// rounds, and every round must reproduce the first bit for bit.
#include <cmath>

#include "baselines/graphcl.h"
#include "bench.h"
#include "common/rng.h"
#include "core/lipschitz_generator.h"
#include "core/sgcl_trainer.h"
#include "data/synthetic_tu.h"
#include "eval/cross_validation.h"
#include "graph/graph_source.h"
#include "train_step.h"

namespace perfbench {
namespace {

struct Round {
  double train_gps = 0.0;      // phase 1, steady-state epochs
  double train_s = 0.0;        // phase 1 wall
  std::vector<double> score_s; // phase 2, one entry per graph
  int64_t scored_nodes = 0;
  double embed_s = 0.0;        // phase 3
  double svm_s = 0.0;
  double accuracy_pct = 0.0;
  double graphcl_gps = 0.0;    // phase 4, steady-state epochs
  double wall_s = 0.0;         // the whole round
  double steal = 0.0;          // hypervisor steal share during the round
  std::vector<float> losses;
  std::vector<float> graphcl_losses;
};

// Graphs per second over the epochs after the first (warm-up) epoch.
double SteadyGraphsPerSecond(const std::vector<double>& epoch_seconds,
                             double graphs_per_epoch) {
  double secs = 0.0;
  for (size_t e = 1; e < epoch_seconds.size(); ++e) secs += epoch_seconds[e];
  const double epochs = static_cast<double>(epoch_seconds.size()) - 1.0;
  return secs > 0.0 ? graphs_per_epoch * epochs / secs : 0.0;
}

bool AllFinite(const std::vector<float>& v) {
  for (float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return !v.empty();
}

}  // namespace

void RunExactPipeline(const RunOptions& o, Outcome* out) {
  const int target_graphs = o.tiny ? 40 : 256;
  const int epochs = 3;
  const int first_setups = o.tiny ? 3 : 9;
  const int setups_per_round = 3;

  // ---- Set-up: the seeded PROTEINS-like dataset, built several times
  // here and rebuilt (timed, then discarded) after every measured round.
  // On a shared host the single-threaded build ran ~40% slower for
  // seconds at a time; set-ups spread over the run give a median that
  // repeats between runs.
  sgcl::SyntheticTuOptions tu;
  tu.graph_fraction =
      static_cast<double>(target_graphs) /
      sgcl::GetTuConfig(sgcl::TuDataset::kProteins).num_graphs;
  tu.seed = o.seed;
  std::vector<double> setup_s;
  auto synthesize = [&] {
    const auto t0 = Clock::now();
    sgcl::GraphDataset built =
        sgcl::MakeTuDataset(sgcl::TuDataset::kProteins, tu);
    setup_s.push_back(SecondsSince(t0));
    return built;
  };
  sgcl::GraphDataset ds;
  for (int i = 0; i < first_setups; ++i) ds = synthesize();
  out->Check(ds.size() >= 8, "dataset synthesized");
  if (ds.size() < 8) return;
  std::vector<const sgcl::Graph*> all;
  for (int64_t i = 0; i < ds.size(); ++i) all.push_back(&ds.graph(i));
  auto labels = ds.Labels();
  out->Op(labels.status(), "dataset labels");
  if (!labels.ok()) return;

  sgcl::SgclConfig cfg = sgcl::MakeUnsupervisedConfig(ds.feat_dim());
  cfg.lipschitz_mode = sgcl::LipschitzMode::kExact;
  cfg.epochs = epochs;
  cfg.batch_size = 32;
  out->Op(cfg.Validate(), "config");
  const double graphs_per_epoch = static_cast<double>(
      ds.size() - (ds.size() % cfg.batch_size == 1 ? 1 : 0));
  sgcl::BaselineConfig gcl_cfg;
  gcl_cfg.encoder = cfg.encoder;
  gcl_cfg.epochs = epochs;
  gcl_cfg.batch_size = cfg.batch_size;
  gcl_cfg.seed = o.seed;

  // Graphs whose scores are checked against the unbatched reference.
  std::vector<int64_t> checked;
  {
    sgcl::Rng pick(o.seed ^ 0x9e3779b9ULL);
    for (int i = 0; i < 4; ++i) checked.push_back(pick.UniformInt(ds.size()));
  }

  auto run_round = [&](bool first) {
    Round r;
    const auto round_start = Clock::now();
    const CpuTicks ticks = ReadCpuTicks();
    sgcl::SgclTrainer trainer(cfg, o.seed);
    {
      Span span("core/pretrain");
      const auto t0 = Clock::now();
      auto stats = trainer.Pretrain(ds);
      r.train_s = SecondsSince(t0);
      out->Op(stats.status(), "SgclTrainer::Pretrain");
      if (stats.ok()) {
        r.losses = stats->epoch_losses;
        r.train_gps = SteadyGraphsPerSecond(stats->epoch_seconds,
                                            graphs_per_epoch);
      }
    }
    const sgcl::SgclModel& model = trainer.model();
    for (const sgcl::Graph* g : all) {
      Span span("core/node_lipschitz_constants");
      const auto t0 = Clock::now();
      const std::vector<float> k = model.NodeLipschitzConstants(*g);
      r.score_s.push_back(SecondsSince(t0));
      r.scored_nodes += static_cast<int64_t>(k.size());
    }
    if (first) {
      const sgcl::LipschitzGenerator reference(&model.encoder_q(),
                                               sgcl::LipschitzMode::kExact);
      for (int64_t idx : checked) {
        const sgcl::Graph& g = ds.graph(idx);
        const std::vector<float> got = model.NodeLipschitzConstants(g);
        const std::vector<float> want = reference.ExactConstantsReference(g);
        bool ok = got.size() == want.size();
        for (size_t i = 0; ok && i < got.size(); ++i) {
          // The golden tolerance, relative once constants exceed 1.
          ok = std::isfinite(got[i]) &&
               std::abs(got[i] - want[i]) <=
                   1e-5f * std::max(1.0f, std::abs(want[i]));
        }
        out->Check(ok, "exact scores of graph " + std::to_string(idx) +
                           " match ExactConstantsReference");
      }
    }
    {
      sgcl::Tensor emb;
      {
        Span span("eval/embed_graphs");
        const auto t0 = Clock::now();
        emb = model.EmbedGraphs(all);
        r.embed_s = SecondsSince(t0);
      }
      Span span("eval/svm_cross_validate");
      sgcl::Rng cv_rng(o.seed);
      const auto t0 = Clock::now();
      const sgcl::MeanStd cv = sgcl::SvmCrossValidate(
          emb.values(), emb.rows(), emb.cols(), *labels, ds.num_classes(),
          /*folds=*/10, &cv_rng);
      r.svm_s = SecondsSince(t0);
      r.accuracy_pct = 100.0 * cv.mean;
    }
    {
      Span span("baselines/graphcl_pretrain");
      sgcl::GraphClBaseline graphcl(gcl_cfg);
      // GclPretrainerBase records no epoch times, so the whole call is
      // timed, warm-up epoch included.
      const auto t0 = Clock::now();
      const sgcl::PretrainStats stats = graphcl.Pretrain(ds, {});
      r.graphcl_gps = graphs_per_epoch * epochs / SecondsSince(t0);
      r.graphcl_losses = stats.epoch_losses;
    }
    r.wall_s = SecondsSince(round_start);
    r.steal = StealShare(ticks, ReadCpuTicks());
    return r;
  };

  // ---- Measured rounds. A traced run alternates untraced and traced
  // rounds so the tracing overhead is measured on identical work; the
  // remaining budget goes to the step replay and the fused-kernel probe.
  const double round_budget = o.trace ? Budget(o.seconds, 0.55, 0.5)
                                      : Budget(o.seconds, 1.0, 0.5);
  // The first round warms caches and the thread pool; a traced run keeps
  // it out of the overhead comparison.
  const int min_rounds = o.trace ? 3 : 1;
  std::vector<Round> rounds;
  std::vector<double> untraced_wall, traced_wall;
  const auto start = Clock::now();
  const sgcl::MetricsSnapshot before = MetricsDelta::Now();
  while (static_cast<int>(rounds.size()) < min_rounds ||
         SecondsSince(start) < round_budget) {
    const bool traced = o.trace && rounds.size() % 2 == 1;
    Tracer::Get().SetEnabled(traced);
    rounds.push_back(run_round(rounds.empty()));
    Tracer::Get().SetEnabled(false);
    for (int i = 0; i < setups_per_round; ++i) synthesize();
    if (rounds.size() > 1) {
      (traced ? traced_wall : untraced_wall).push_back(rounds.back().wall_s);
    }
  }
  const Round& first = rounds.front();
  out->Check(AllFinite(first.losses), "SGCL epoch losses are finite");
  out->Check(AllFinite(first.graphcl_losses), "GraphCL epoch losses are finite");
  const double chance = 100.0 / std::max(1, ds.num_classes());
  out->Check(first.accuracy_pct > chance, "SVM accuracy above chance");
  for (size_t i = 1; i < rounds.size(); ++i) {
    out->Check(rounds[i].losses == first.losses &&
                   rounds[i].graphcl_losses == first.graphcl_losses &&
                   rounds[i].accuracy_pct == first.accuracy_pct,
               "round " + std::to_string(i) + " reproduces round 0 bitwise");
  }

  std::vector<double> steal;
  for (const Round& r : rounds) steal.push_back(r.steal);
  const std::vector<bool> kept = LeastStolen(steal);
  std::vector<double> train_gps, graphcl_gps, pipeline_s, embed_s, svm_s,
      score_s;
  double score_total = 0.0;
  int64_t scored_nodes = 0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (!kept[i]) continue;
    const Round& r = rounds[i];
    train_gps.push_back(r.train_gps);
    graphcl_gps.push_back(r.graphcl_gps);
    pipeline_s.push_back(r.train_s + r.embed_s + r.svm_s);
    embed_s.push_back(r.embed_s);
    svm_s.push_back(r.svm_s);
    score_s.insert(score_s.end(), r.score_s.begin(), r.score_s.end());
    score_total += Sum(r.score_s);
    scored_nodes += r.scored_nodes;
  }
  const double score_ms_per_graph =
      1e3 * score_total / static_cast<double>(score_s.size());

  if (!o.trace) {
    out->Metric("setup_s", Median(setup_s), "s");
    out->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    out->Metric("graphs_per_s", Median(train_gps), "graphs/s");
    out->Metric("latency_p50_ms", 1e3 * Median(score_s), "ms");
    out->Metric("latency_p90_ms", 1e3 * WindowedQuantile(score_s, 0.90), "ms");
    out->Display("setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(setup_s.size()) +
                     " set-ups over the run");
    out->Display("peak_rss_mib", PeakRssMib(), "MiB");
    out->Display("error_pct", out->error_pct(), "%",
                 std::to_string(out->failed()) + " of " +
                     std::to_string(out->attempted()) + " operations");
    out->Display("train_graphs_per_s", Median(train_gps), "graphs/s",
                 "phase 1, exact generator, median of " +
                     std::to_string(train_gps.size()) + " of " +
                     std::to_string(rounds.size()) + " rounds (" +
                     std::to_string(static_cast<int>(Quantile(train_gps, 0))) +
                     ".." +
                     std::to_string(static_cast<int>(Quantile(train_gps, 1))) +
                     ")");
    out->Display("baseline_graphs_per_s", Median(graphcl_gps), "graphs/s",
                 "phase 4, GraphCL");
    out->Display("score_ms_per_graph", score_ms_per_graph, "ms",
                 "phase 2, " + std::to_string(score_s.size()) + " graphs");
    out->Display("pipeline_s", Median(pipeline_s), "s", "phases 1+3");
    out->Display("svm_accuracy_pct", first.accuracy_pct, "%", "10-fold CV");
    out->Display("score_ms_p50 / p99", 1e3 * Median(score_s), "ms",
                 "windowed p99 " +
                     std::to_string(1e3 * WindowedQuantile(score_s, 0.99)) +
                     ", pooled p99 " +
                     std::to_string(1e3 * Quantile(score_s, 0.99)));
    return;
  }

  // ---- Traced run: per-layer metrics.
  out->Metric("core.generator_ms_per_graph", score_ms_per_graph, "ms");
  out->Metric("core.generator_views_per_s",
              static_cast<double>(scored_nodes) / score_total, "1/s");
  out->Metric("eval.embed_ms", 1e3 * Median(embed_s), "ms");
  out->Metric("eval.svm_cv_ms", 1e3 * Median(svm_s), "ms");
  out->Metric("eval.svm_accuracy_pct", first.accuracy_pct, "%");
  out->Metric("eval.pipeline_s", Median(pipeline_s), "s");
  out->Metric("baselines.graphcl_graphs_per_s", Median(graphcl_gps),
              "graphs/s");
  out->Metric("bench.trace_overhead_pct",
              100.0 * (Median(traced_wall) / Median(untraced_wall) - 1.0), "%");

  // Step replay of phase 1's configuration, traced.
  Tracer::Get().SetEnabled(true);
  const sgcl::InMemorySource memory(&ds);
  const TimedSource timed(&memory);
  StepReplay replay;
  out->Op(ReplaySteps(cfg, timed, o.seed, Budget(o.seconds, 0.3, 0.3),
                      /*min_steps=*/4, &replay),
          "step replay");
  Tracer::Get().SetEnabled(false);
  ReportStepReplay(replay, timed.fetch_seconds(), out);

  // Fused masked-view kernel on this workload's graphs, one call per
  // graph on one thread, against MACs from the graphs' l-hop balls.
  {
    sgcl::Rng rng(o.seed);
    const sgcl::SgclModel model(cfg, &rng);
    const sgcl::GinInferencePlan plan =
        sgcl::GinInferencePlan::Build(model.encoder_q());
    double macs = 0.0, bytes = 0.0, secs = 0.0;
    const auto probe_start = Clock::now();
    const double probe_budget = Budget(o.seconds, 0.1, 0.1);
    size_t calls = 0;
    while (calls < all.size() || SecondsSince(probe_start) < probe_budget) {
      const sgcl::Graph& g = *all[calls % all.size()];
      const sgcl::GraphBatch base = sgcl::GraphBatch::FromGraphPtrs({&g});
      const int64_t n = g.num_nodes();
      const sgcl::GinMaskedViewKernel kernel(
          plan, base.features.data(), n, base.edge_src.data(),
          base.edge_dst.data(), static_cast<int64_t>(base.edge_src.size()));
      std::vector<double> disp(static_cast<size_t>(n));
      const auto t0 = Clock::now();
      {
        Span span("nn/view_displacements_sq");
        kernel.ViewDisplacementsSq(0, n, disp.data());
      }
      secs += SecondsSince(t0);
      // The base encode ran in the constructor; count only the views.
      const OpCount views = MaskedViewCount(plan.layers(), g);
      const OpCount base_pass =
          EncoderPassCount(plan.layers(), static_cast<double>(n));
      macs += views.macs - base_pass.macs;
      bytes += views.bytes - base_pass.bytes;
      ++calls;
    }
    out->Metric("nn.fused_gmacs_per_s", macs / secs * 1e-9, "GMAC/s");
    out->Metric("nn.fused_mmacs_per_batch",
                macs / static_cast<double>(calls) * 1e-6, "MMAC");
    out->Metric("nn.fused_mb_per_batch",
                bytes / static_cast<double>(calls) * 1e-6, "MB");
  }
  const MetricsDelta delta(before, MetricsDelta::Now());
  out->Metric("common.pool_queue_wait_us_p99",
              HistQuantile(delta.Histogram("parallel/queue_wait_us"), 0.99),
              "us");
  out->Display("trace overhead rounds",
               static_cast<double>(traced_wall.size()), "count",
               "vs " + std::to_string(untraced_wall.size()) + " untraced");
}

}  // namespace perfbench
