// Crash-safe checkpoint tests: TrainState round-trips, config
// fingerprinting, adversarial corruption (truncation at every byte,
// per-section bit flips, wrong magic/version/shape), checkpoint-file
// retention, and the bitwise-identical resume contract.
#include "core/train_state.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/sgcl_trainer.h"
#include "data/synthetic_tu.h"
#include "gtest/gtest.h"
#include "nn/checkpoint.h"
#include "nn/linear.h"

namespace sgcl {
namespace {

std::string TmpDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

GraphDataset SmallDataset(uint64_t seed = 21) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.05;  // ~20 MUTAG-like graphs
  opt.node_cap = 20;
  opt.seed = seed;
  return MakeTuDataset(TuDataset::kMutag, opt);
}

SgclConfig SmallConfig(int64_t feat_dim, int epochs = 4) {
  SgclConfig cfg = MakeUnsupervisedConfig(feat_dim);
  cfg.encoder.hidden_dim = 8;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 8;
  cfg.batch_size = 8;
  cfg.epochs = epochs;
  return cfg;
}

// A fully-populated synthetic TrainState with every field non-default.
TrainState MakeState() {
  TrainState state;
  state.config_fingerprint = 0x0123456789abcdefULL;
  state.model_params = std::string("model-bytes\x00\x01\x02", 14);
  state.optimizer.t = 42;
  state.optimizer.m = {{0.1f, 0.2f}, {0.3f}};
  state.optimizer.v = {{1.1f, 1.2f}, {1.3f}};
  Rng rng(99);
  rng.Normal();  // leaves a cached Box-Muller spare in the state
  state.rng = rng.GetState();
  state.next_epoch = 3;
  state.total_epochs = 7;
  state.total_batches = 55;
  state.order = {4, 0, 2, 1, 3};
  state.epoch_losses = {1.5f, 1.25f, 1.0f};
  state.epoch_seconds = {0.5, 0.25, 0.125};
  return state;
}

TEST(ConfigFingerprintTest, StableAndSensitive) {
  const SgclConfig base = SmallConfig(7);
  EXPECT_EQ(ConfigFingerprint(base), ConfigFingerprint(base));
  struct Case {
    const char* name;
    void (*mutate)(SgclConfig*);
  };
  const Case cases[] = {
      {"arch", [](SgclConfig* c) { c->encoder.arch = GnnArch::kGcn; }},
      {"hidden_dim", [](SgclConfig* c) { c->encoder.hidden_dim = 16; }},
      {"num_layers", [](SgclConfig* c) { c->encoder.num_layers = 3; }},
      {"proj_dim", [](SgclConfig* c) { c->proj_dim = 4; }},
      {"tau", [](SgclConfig* c) { c->tau = 0.3f; }},
      {"lambda_c", [](SgclConfig* c) { c->lambda_c = 0.5f; }},
      {"rho", [](SgclConfig* c) { c->rho = 0.5; }},
      {"semantic_pooling", [](SgclConfig* c) { c->semantic_pooling = false; }},
      {"learning_rate", [](SgclConfig* c) { c->learning_rate = 2e-3f; }},
      {"epochs", [](SgclConfig* c) { c->epochs = 5; }},
      {"batch_size", [](SgclConfig* c) { c->batch_size = 4; }},
      {"grad_clip", [](SgclConfig* c) { c->grad_clip = 1.0f; }},
  };
  for (const Case& c : cases) {
    SgclConfig mutated = base;
    c.mutate(&mutated);
    EXPECT_NE(ConfigFingerprint(mutated), ConfigFingerprint(base)) << c.name;
  }
}

TEST(TrainStateTest, SerializeParseRoundTrip) {
  const TrainState state = MakeState();
  const std::string bytes = SerializeTrainState(state);
  auto parsed = ParseTrainState(bytes, "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->config_fingerprint, state.config_fingerprint);
  EXPECT_EQ(parsed->model_params, state.model_params);
  EXPECT_EQ(parsed->optimizer.t, state.optimizer.t);
  EXPECT_EQ(parsed->optimizer.m, state.optimizer.m);
  EXPECT_EQ(parsed->optimizer.v, state.optimizer.v);
  EXPECT_TRUE(parsed->rng == state.rng);
  EXPECT_EQ(parsed->next_epoch, state.next_epoch);
  EXPECT_EQ(parsed->total_epochs, state.total_epochs);
  EXPECT_EQ(parsed->total_batches, state.total_batches);
  EXPECT_EQ(parsed->order, state.order);
  EXPECT_EQ(parsed->epoch_losses, state.epoch_losses);
  EXPECT_EQ(parsed->epoch_seconds, state.epoch_seconds);
}

TEST(TrainStateTest, RestoredRngContinuesTheStream) {
  Rng original(123);
  original.Normal();
  TrainState state = MakeState();
  state.rng = original.GetState();
  auto parsed = ParseTrainState(SerializeTrainState(state), "test");
  ASSERT_TRUE(parsed.ok());
  Rng restored(1);  // seed is irrelevant once SetState runs
  restored.SetState(parsed->rng);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(restored.Next(), original.Next()) << "draw " << i;
    EXPECT_EQ(restored.Normal(), original.Normal()) << "draw " << i;
  }
}

// Drops the trailing grad_accum field from a checkpoint's cursor
// section: the bytes a checkpoint written before the field existed has.
std::string WithoutGradAccum(const std::string& bytes) {
  auto sections = ParseCheckpointV2(bytes, "strip");
  EXPECT_TRUE(sections.ok()) << sections.status().ToString();
  if (!sections.ok()) return bytes;
  for (CheckpointSection& section : *sections) {
    if (section.id == static_cast<uint32_t>(CheckpointSectionId::kCursor)) {
      section.payload.resize(section.payload.size() - sizeof(uint32_t));
    }
  }
  return SerializeCheckpointV2(*sections);
}

TEST(TrainStateTest, GradAccumRoundTripsAndMayBeAbsent) {
  TrainState state = MakeState();
  state.train_seed = 77;
  state.grad_accum = 4;
  const std::string bytes = SerializeTrainState(state);
  auto parsed = ParseTrainState(bytes, "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->grad_accum, 4u);

  auto legacy = ParseTrainState(WithoutGradAccum(bytes), "legacy");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->grad_accum, 0u);
  EXPECT_EQ(legacy->train_seed, 77u);
  EXPECT_EQ(legacy->order, state.order);
}

TEST(TrainStateTest, TruncationAtEveryByteFailsCleanly) {
  const std::string bytes = SerializeTrainState(MakeState());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = ParseTrainState(bytes.substr(0, len), "trunc");
    EXPECT_FALSE(parsed.ok()) << "accepted a " << len << "-byte prefix of "
                              << bytes.size() << " bytes";
  }
  EXPECT_TRUE(ParseTrainState(bytes, "full").ok());
}

TEST(TrainStateTest, TrailingGarbageIsRejected) {
  const std::string bytes = SerializeTrainState(MakeState()) + "x";
  auto parsed = ParseTrainState(bytes, "trailing");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("trailing"), std::string::npos);
}

TEST(TrainStateTest, BitFlipInEachSectionIsCaughtByCrc) {
  const std::string bytes = SerializeTrainState(MakeState());
  // Walk the container structurally: 12-byte file header, then per
  // section a 12-byte header, payload, 4-byte CRC.
  size_t pos = 12;
  int sections = 0;
  while (pos < bytes.size()) {
    int64_t payload_size = 0;
    std::memcpy(&payload_size, bytes.data() + pos + 4, sizeof(payload_size));
    ASSERT_GE(payload_size, 0);
    const size_t payload_start = pos + 12;
    if (payload_size > 0) {
      // Flip one bit in the middle of this payload.
      std::string corrupt = bytes;
      corrupt[payload_start + static_cast<size_t>(payload_size) / 2] ^= 0x10;
      auto parsed = ParseTrainState(corrupt, "flip");
      ASSERT_FALSE(parsed.ok()) << "section " << sections;
      EXPECT_NE(parsed.status().message().find("CRC"), std::string::npos)
          << parsed.status().ToString();
    }
    pos = payload_start + static_cast<size_t>(payload_size) + 4;
    ++sections;
  }
  EXPECT_EQ(sections, 5);
}

TEST(TrainStateTest, WrongMagicAndVersionAreRejected) {
  std::string bytes = SerializeTrainState(MakeState());
  {
    std::string bad = bytes;
    bad[0] ^= 0xFF;
    auto parsed = ParseTrainState(bad, "magic");
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("not an SGCL checkpoint"),
              std::string::npos);
  }
  {
    std::string bad = bytes;
    bad[4] = 9;  // version 9
    auto parsed = ParseTrainState(bad, "version");
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("version"), std::string::npos);
  }
}

TEST(TrainStateTest, MissingSectionIsNamed) {
  // A container with only the model section is a valid v2 file but not a
  // valid training checkpoint.
  std::vector<CheckpointSection> sections;
  sections.push_back(
      {static_cast<uint32_t>(CheckpointSectionId::kModel), "payload"});
  auto parsed = ParseTrainState(SerializeCheckpointV2(sections), "partial");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("config"), std::string::npos);
}

TEST(TrainStateTest, SaveLoadRoundTripsThroughDisk) {
  const std::string dir = TmpDir("train_state_io");
  const TrainState state = MakeState();
  const std::string path = CheckpointFileName(dir, state.next_epoch);
  ASSERT_TRUE(SaveTrainCheckpoint(state, path).ok());
  auto loaded = LoadTrainCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->order, state.order);
  EXPECT_TRUE(loaded->rng == state.rng);
  auto missing = LoadTrainCheckpoint(dir + "/nope.sgcl");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFilesTest, NamingSortsByEpoch) {
  EXPECT_EQ(CheckpointFileName("d", 7), "d/ckpt-000007.sgcl");
  EXPECT_EQ(CheckpointFileName("d", 123456), "d/ckpt-123456.sgcl");
  EXPECT_LT(CheckpointFileName("d", 9), CheckpointFileName("d", 10));
}

TEST(CheckpointFilesTest, FindLatestIgnoresTempAndForeignFiles) {
  const std::string dir = TmpDir("find_latest");
  EXPECT_EQ(FindLatestCheckpoint(dir).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(AtomicWriteFile(CheckpointFileName(dir, 2), "two").ok());
  ASSERT_TRUE(AtomicWriteFile(CheckpointFileName(dir, 10), "ten").ok());
  // Distractors: a crash-orphaned temp file "newer" than every
  // checkpoint, and unrelated names.
  ASSERT_TRUE(
      AtomicWriteFile(CheckpointFileName(dir, 99) + ".tmp", "orphan").ok());
  ASSERT_TRUE(AtomicWriteFile(dir + "/notes.txt", "n").ok());
  ASSERT_TRUE(AtomicWriteFile(dir + "/ckpt-abc.sgcl", "bad digits").ok());
  auto latest = FindLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, CheckpointFileName(dir, 10));
  EXPECT_EQ(FindLatestCheckpoint(dir + "/missing").status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointFilesTest, PruneKeepsNewest) {
  const std::string dir = TmpDir("prune");
  for (int epoch : {1, 2, 3, 4, 5}) {
    ASSERT_TRUE(AtomicWriteFile(CheckpointFileName(dir, epoch), "x").ok());
  }
  ASSERT_TRUE(PruneCheckpoints(dir, 2).ok());
  EXPECT_FALSE(std::filesystem::exists(CheckpointFileName(dir, 3)));
  EXPECT_TRUE(std::filesystem::exists(CheckpointFileName(dir, 4)));
  EXPECT_TRUE(std::filesystem::exists(CheckpointFileName(dir, 5)));
  // keep_last <= 0 keeps everything.
  ASSERT_TRUE(PruneCheckpoints(dir, 0).ok());
  EXPECT_TRUE(std::filesystem::exists(CheckpointFileName(dir, 4)));
}

TEST(ApplyModuleParamsTest, ShapeMismatchLeavesModuleUntouched) {
  Rng rng(5);
  Linear source(2, 3, &rng);
  Linear target(3, 2, &rng);
  const std::vector<float> before = target.weight().values();
  const Status st = ApplyModuleParams(
      SerializeModuleParams(source.Parameters()), target.Parameters(),
      "mismatch");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shape"), std::string::npos);
  EXPECT_EQ(target.weight().values(), before);
}

TEST(TrainerCheckpointTest, SavesOnCadenceAndFinalEpoch) {
  const std::string dir = TmpDir("trainer_cadence");
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/5);
  SgclTrainer trainer(cfg, /*seed=*/3);
  PretrainOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 2;
  options.checkpoint_keep_last = 0;
  std::vector<int> checkpoint_epochs;
  options.on_checkpoint = [&](const CheckpointReport& report) {
    checkpoint_epochs.push_back(report.epoch);
    EXPECT_TRUE(std::filesystem::exists(report.path)) << report.path;
    EXPECT_GE(report.seconds, 0.0);
  };
  const int64_t saves_before =
      MetricsRegistry::Global().GetCounter("checkpoint/saves")->value();
  auto stats = trainer.Pretrain(ds, {}, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(checkpoint_epochs, (std::vector<int>{1, 3, 4}));
  EXPECT_TRUE(std::filesystem::exists(CheckpointFileName(dir, 2)));
  EXPECT_TRUE(std::filesystem::exists(CheckpointFileName(dir, 4)));
  EXPECT_TRUE(std::filesystem::exists(CheckpointFileName(dir, 5)));
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("checkpoint/saves")->value() -
          saves_before,
      3);
  // Checkpointing shows up as a stage in the run's breakdown.
  EXPECT_TRUE(stats->stage_seconds.count("checkpoint"));
}

TEST(TrainerCheckpointTest, RetentionPrunesOldCheckpoints) {
  const std::string dir = TmpDir("trainer_retention");
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/4);
  SgclTrainer trainer(cfg, /*seed=*/3);
  PretrainOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  options.checkpoint_keep_last = 2;
  ASSERT_TRUE(trainer.Pretrain(ds, {}, options).ok());
  EXPECT_FALSE(std::filesystem::exists(CheckpointFileName(dir, 1)));
  EXPECT_FALSE(std::filesystem::exists(CheckpointFileName(dir, 2)));
  EXPECT_TRUE(std::filesystem::exists(CheckpointFileName(dir, 3)));
  EXPECT_TRUE(std::filesystem::exists(CheckpointFileName(dir, 4)));
}

TEST(TrainerCheckpointTest, ResumeReproducesUninterruptedRunBitwise) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/4);

  // Baseline: one uninterrupted run.
  SgclTrainer baseline(cfg, /*seed=*/17);
  auto full = baseline.Pretrain(ds);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->epoch_losses.size(), 4u);

  // Interrupted run: same seed, checkpointing every epoch, cancelled
  // after epoch 2 (the cancel is only observed at the next batch poll).
  const std::string dir = TmpDir("trainer_resume");
  SgclTrainer interrupted(cfg, /*seed=*/17);
  PretrainOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  int epochs_done = 0;
  options.on_epoch_end = [&](const EpochReport&) { ++epochs_done; };
  options.should_cancel = [&]() { return epochs_done >= 2; };
  auto partial = interrupted.Pretrain(ds, {}, options);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->cancelled);
  ASSERT_EQ(partial->epoch_losses.size(), 2u);

  // Resume in a "new process": a fresh trainer with a different seed —
  // every bit of trainer state must come from the checkpoint.
  auto latest = FindLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, CheckpointFileName(dir, 2));
  SgclTrainer resumed(cfg, /*seed=*/9999);
  PretrainOptions resume_options;
  resume_options.resume_from = *latest;
  auto rest = resumed.Pretrain(ds, {}, resume_options);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_FALSE(rest->cancelled);

  // The resumed stats hold the full run: restored prefix + new epochs,
  // bitwise equal to the uninterrupted baseline.
  ASSERT_EQ(rest->epoch_losses.size(), full->epoch_losses.size());
  for (size_t e = 0; e < full->epoch_losses.size(); ++e) {
    EXPECT_EQ(rest->epoch_losses[e], full->epoch_losses[e]) << "epoch " << e;
  }
  EXPECT_EQ(rest->total_batches, full->total_batches);
}

// A checkpoint written before grad_accum was recorded still resumes,
// bitwise, under the cursor check alone.
TEST(TrainerCheckpointTest, CheckpointWithoutGradAccumResumesBitwise) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/3);
  const std::string dir = TmpDir("trainer_resume_legacy");
  SgclTrainer trainer(cfg, /*seed=*/5);
  PretrainOptions options;
  options.checkpoint_dir = dir;
  auto full = trainer.Pretrain(ds, {}, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  const std::string path = CheckpointFileName(dir, 1);
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(AtomicWriteFile(path, WithoutGradAccum(*bytes)).ok());
  auto legacy = LoadTrainCheckpoint(path);
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(legacy->grad_accum, 0u);

  SgclTrainer resumed(cfg, /*seed=*/999);
  PretrainOptions resume_options;
  resume_options.resume_from = path;
  auto rest = resumed.Pretrain(ds, {}, resume_options);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(rest->epoch_losses, full->epoch_losses);
}

TEST(TrainerCheckpointTest, ResumeRejectsMismatchedConfig) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/2);
  const std::string dir = TmpDir("trainer_resume_mismatch");
  SgclTrainer trainer(cfg, /*seed=*/3);
  PretrainOptions options;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(trainer.Pretrain(ds, {}, options).ok());
  auto latest = FindLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());

  SgclConfig other = cfg;
  other.tau = 0.5f;  // different dynamics -> different fingerprint
  SgclTrainer mismatched(other, /*seed=*/3);
  PretrainOptions resume_options;
  resume_options.resume_from = *latest;
  auto st = mismatched.Pretrain(ds, {}, resume_options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.status().message().find("fingerprint"), std::string::npos);
}

TEST(TrainerCheckpointTest, ResumeRejectsDifferentIndexSet) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/2);
  const std::string dir = TmpDir("trainer_resume_indices");
  SgclTrainer trainer(cfg, /*seed=*/3);
  PretrainOptions options;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(trainer.Pretrain(ds, {}, options).ok());
  auto latest = FindLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());

  SgclTrainer resumed(cfg, /*seed=*/3);
  PretrainOptions resume_options;
  resume_options.resume_from = *latest;
  auto st = resumed.Pretrain(ds, {0, 1, 2, 3}, resume_options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.status().message().find("index set"), std::string::npos);
}

TEST(TrainerCheckpointTest, InvalidCheckpointEveryIsRejected) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/2);
  SgclTrainer trainer(cfg, /*seed=*/3);
  PretrainOptions options;
  options.checkpoint_dir = TmpDir("trainer_bad_every");
  options.checkpoint_every = 0;
  auto st = trainer.Pretrain(ds, {}, options);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.status().message().find("checkpoint_every"), std::string::npos);
}

}  // namespace
}  // namespace sgcl
