// Trainer API tests: config validation, the observer-based Pretrain
// options, cancellation, error Statuses, and the no-observability-cost
// invariant (attaching an observer must not perturb training).
#include "core/sgcl_trainer.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "data/synthetic_tu.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

GraphDataset SmallDataset(uint64_t seed = 21) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.05;  // ~20 MUTAG-like graphs
  opt.node_cap = 20;
  opt.seed = seed;
  return MakeTuDataset(TuDataset::kMutag, opt);
}

SgclConfig SmallConfig(int64_t feat_dim) {
  SgclConfig cfg = MakeUnsupervisedConfig(feat_dim);
  cfg.encoder.hidden_dim = 16;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 16;
  cfg.batch_size = 8;
  cfg.epochs = 3;
  return cfg;
}

TEST(SgclConfigValidateTest, DefaultConfigsAreValid) {
  EXPECT_TRUE(MakeUnsupervisedConfig(7).Validate().ok());
  EXPECT_TRUE(MakeTransferConfig(7).Validate().ok());
}

TEST(SgclConfigValidateTest, RejectsBadFields) {
  struct Case {
    const char* name;
    void (*mutate)(SgclConfig*);
  };
  const Case cases[] = {
      {"in_dim", [](SgclConfig* c) { c->encoder.in_dim = 0; }},
      {"hidden_dim", [](SgclConfig* c) { c->encoder.hidden_dim = -1; }},
      {"num_layers", [](SgclConfig* c) { c->encoder.num_layers = 0; }},
      {"proj_dim", [](SgclConfig* c) { c->proj_dim = 0; }},
      {"tau", [](SgclConfig* c) { c->tau = 0.0f; }},
      {"tau", [](SgclConfig* c) { c->tau = -0.5f; }},
      {"lambda_c", [](SgclConfig* c) { c->lambda_c = -0.1f; }},
      {"lambda_w", [](SgclConfig* c) { c->lambda_w = -1.0f; }},
      {"rho", [](SgclConfig* c) { c->rho = -0.01; }},
      {"rho", [](SgclConfig* c) { c->rho = 1.01; }},
      {"learning_rate", [](SgclConfig* c) { c->learning_rate = 0.0f; }},
      {"epochs", [](SgclConfig* c) { c->epochs = 0; }},
      {"batch_size", [](SgclConfig* c) { c->batch_size = 1; }},
      {"grad_clip", [](SgclConfig* c) { c->grad_clip = 0.0f; }},
  };
  for (const Case& c : cases) {
    SgclConfig cfg = MakeUnsupervisedConfig(7);
    c.mutate(&cfg);
    Status st = cfg.Validate();
    EXPECT_FALSE(st.ok()) << c.name;
    // The message names the offending field.
    EXPECT_NE(st.message().find(c.name), std::string::npos) << st.ToString();
  }
}

TEST(SgclTrainerTest, PretrainReturnsPerEpochTimings) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  SgclTrainer trainer(cfg, /*seed=*/3);
  auto stats = trainer.Pretrain(ds);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->cancelled);
  ASSERT_EQ(stats->epoch_losses.size(), 3u);
  ASSERT_EQ(stats->epoch_seconds.size(), 3u);
  EXPECT_GT(stats->total_batches, 0);
  EXPECT_GE(stats->total_seconds, 0.0);
  for (double s : stats->epoch_seconds) EXPECT_GE(s, 0.0);
  // The instrumented stages show up in the whole-run breakdown.
  for (const char* stage : {"generator", "augmentation", "encode", "loss",
                            "backward", "optimizer"}) {
    ASSERT_TRUE(stats->stage_seconds.count(stage)) << stage;
    EXPECT_GE(stats->stage_seconds.at(stage), 0.0) << stage;
  }
}

TEST(SgclTrainerTest, ObserverDoesNotPerturbTraining) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim());

  SgclTrainer plain(cfg, /*seed=*/11);
  auto plain_stats = plain.Pretrain(ds);
  ASSERT_TRUE(plain_stats.ok());

  std::vector<EpochReport> reports;
  PretrainOptions options;
  options.on_epoch_end = [&](const EpochReport& r) { reports.push_back(r); };
  options.should_cancel = [] { return false; };
  SgclTrainer observed(cfg, /*seed=*/11);
  auto observed_stats = observed.Pretrain(ds, {}, options);
  ASSERT_TRUE(observed_stats.ok());

  // Bitwise-identical losses: the observer only reads timings, so the
  // training computation (RNG stream included) must be untouched.
  ASSERT_EQ(plain_stats->epoch_losses.size(),
            observed_stats->epoch_losses.size());
  for (size_t e = 0; e < plain_stats->epoch_losses.size(); ++e) {
    EXPECT_EQ(plain_stats->epoch_losses[e], observed_stats->epoch_losses[e])
        << "epoch " << e;
  }
  ASSERT_EQ(reports.size(), 3u);
  for (size_t e = 0; e < reports.size(); ++e) {
    EXPECT_EQ(reports[e].epoch, static_cast<int>(e));
    EXPECT_EQ(reports[e].total_epochs, cfg.epochs);
    EXPECT_EQ(reports[e].mean_loss, observed_stats->epoch_losses[e]);
    EXPECT_GT(reports[e].batches, 0);
  }
}

TEST(SgclTrainerTest, TraceSamplingDoesNotPerturbTraining) {
  // Sampling draws from a deterministic atomic counter, never from the
  // training RNG, so every-batch tracing must leave the losses bitwise
  // identical to an untraced run.
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim());

  TraceRing::Global().SetSampleRate(0.0);
  TraceRing::Global().Clear();
  SgclTrainer untraced(cfg, /*seed=*/17);
  auto untraced_stats = untraced.Pretrain(ds);
  ASSERT_TRUE(untraced_stats.ok());

  TraceRing::Global().SetSampleRate(1.0);
  TraceRing::Global().SetCapacity(16);
  TraceRing::Global().Clear();
  SgclTrainer traced(cfg, /*seed=*/17);
  auto traced_stats = traced.Pretrain(ds);
  ASSERT_TRUE(traced_stats.ok());

  ASSERT_EQ(untraced_stats->epoch_losses.size(),
            traced_stats->epoch_losses.size());
  for (size_t e = 0; e < untraced_stats->epoch_losses.size(); ++e) {
    EXPECT_EQ(untraced_stats->epoch_losses[e], traced_stats->epoch_losses[e])
        << "epoch " << e;
  }
  // And the run actually produced batch-rooted traces.
  EXPECT_GT(TraceRing::Global().committed_count(), 0u);
  EXPECT_NE(TraceRing::Global().ListJson(0, 1).find("train/batch"),
            std::string::npos);

  TraceRing::Global().SetSampleRate(0.0);
  TraceRing::Global().Clear();
}

TEST(SgclTrainerTest, CancellationStopsEarly) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  cfg.epochs = 50;  // would be slow if cancellation failed
  int polls = 0;
  PretrainOptions options;
  options.should_cancel = [&polls] { return ++polls > 3; };
  SgclTrainer trainer(cfg, /*seed=*/5);
  auto stats = trainer.Pretrain(ds, {}, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->cancelled);
  EXPECT_LT(stats->epoch_losses.size(), 50u);
}

TEST(RecordEpochLossMetricsTest, NonfiniteLossIsCountedNotMasked) {
  Gauge* loss_gauge =
      MetricsRegistry::Global().GetGauge("train/last_epoch_loss");
  Counter* nonfinite =
      MetricsRegistry::Global().GetCounter("train/nonfinite_loss");
  nonfinite->Reset();

  RecordEpochLossMetrics(0.5f);
  EXPECT_DOUBLE_EQ(loss_gauge->value(), 0.5);
  EXPECT_EQ(nonfinite->value(), 0);

  RecordEpochLossMetrics(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(nonfinite->value(), 1);
  // The gauge carries the diverged value; JSON export turns it into null
  // rather than a healthy-looking number.
  EXPECT_TRUE(std::isnan(loss_gauge->value()));
  EXPECT_EQ(JsonDouble(loss_gauge->value()), "null");

  RecordEpochLossMetrics(std::numeric_limits<float>::infinity());
  EXPECT_EQ(nonfinite->value(), 2);
  EXPECT_EQ(JsonDouble(loss_gauge->value()), "null");

  RecordEpochLossMetrics(0.25f);
  EXPECT_EQ(nonfinite->value(), 2);  // finite losses don't count
  EXPECT_DOUBLE_EQ(loss_gauge->value(), 0.25);
  nonfinite->Reset();
}

TEST(SgclTrainerTest, RejectsTooFewGraphs) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  SgclTrainer trainer(cfg, /*seed=*/1);
  auto stats = trainer.Pretrain(ds, {0});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

// Every malformed DistributedPretrainOptions is refused before the
// trainer touches the network: comms/connect is armed to crash, and is
// never hit.
TEST(SgclTrainerTest, PretrainDistributedRejectsBadOptionsBeforeConnecting) {
  GraphDataset ds = SmallDataset();
  const InMemorySource source(&ds);
  const SgclConfig cfg = SmallConfig(ds.feat_dim());
  struct Case {
    const char* message;  // names the offending option
    void (*mutate)(DistributedPretrainOptions*);
  };
  const Case cases[] = {
      {"world_size must be >= 1",
       [](DistributedPretrainOptions* d) { d->world_size = 0; }},
      {"rank 2 outside [0, 2)",
       [](DistributedPretrainOptions* d) { d->rank = 2; }},
      {"grad_accum must be >= 1",
       [](DistributedPretrainOptions* d) { d->grad_accum = 0; }},
      {"world_size 4 exceeds grad_accum 2",
       [](DistributedPretrainOptions* d) { d->world_size = 4; }},
      {"coordinator_port must be set",
       [](DistributedPretrainOptions* d) { d->coordinator_port = 0; }},
  };
  for (const Case& c : cases) {
    ScopedFaultInjection faults;
    FaultInjector::Global().Arm("comms/connect", FaultKind::kCrash);
    // Valid but for the mutation: rank 0 of 2 in rounds of 2.
    DistributedPretrainOptions dist;
    dist.world_size = 2;
    dist.grad_accum = 2;
    dist.coordinator_port = 1;
    c.mutate(&dist);
    SgclTrainer trainer(cfg, /*seed=*/1);
    auto stats = trainer.PretrainDistributed(source, {}, {}, dist);
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument)
        << c.message << ": " << stats.status().ToString();
    EXPECT_NE(stats.status().message().find(c.message), std::string::npos)
        << stats.status().ToString();
    EXPECT_EQ(FaultInjector::Global().hits("comms/connect"), 0) << c.message;
  }
}

TEST(SgclTrainerTest, RejectsOutOfRangeIndices) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  SgclTrainer trainer(cfg, /*seed=*/1);
  auto stats = trainer.Pretrain(ds, {0, ds.size()});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace sgcl
