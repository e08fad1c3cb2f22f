// Crash-safe checkpoint tests: TrainState round-trips, config bytes and
// fingerprinting, adversarial corruption (truncation at every byte,
// per-section bit flips, wrong magic/version/shape), model files,
// checkpoint-file retention, and the bitwise-identical resume contract.
#include "core/train_state.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
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
  state.config_bytes = SerializeConfig(SmallConfig(7));
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
  state.batch_cursor = 4;
  state.partial_loss_sum = 2.5;
  state.source_fingerprint = 0xfeedfacecafebeefULL;
  state.train_seed = 77;
  state.grad_accum = 2;
  return state;
}

// One change to each SgclConfig field SerializeConfig writes.
struct ConfigMutation {
  const char* name;
  void (*mutate)(SgclConfig*);
};
const ConfigMutation kConfigMutations[] = {
    {"arch", [](SgclConfig* c) { c->encoder.arch = GnnArch::kGcn; }},
    {"in_dim", [](SgclConfig* c) { c->encoder.in_dim = 9; }},
    {"hidden_dim", [](SgclConfig* c) { c->encoder.hidden_dim = 16; }},
    {"num_layers", [](SgclConfig* c) { c->encoder.num_layers = 3; }},
    {"pooling", [](SgclConfig* c) { c->encoder.pooling = PoolingKind::kMax; }},
    {"proj_dim", [](SgclConfig* c) { c->proj_dim = 4; }},
    {"tau", [](SgclConfig* c) { c->tau = 0.3f; }},
    {"lambda_c", [](SgclConfig* c) { c->lambda_c = 0.5f; }},
    {"lambda_w", [](SgclConfig* c) { c->lambda_w = 0.25f; }},
    {"rho", [](SgclConfig* c) { c->rho = 0.5; }},
    {"augmentation",
     [](SgclConfig* c) { c->augmentation = AugmentationMode::kRandom; }},
    {"lipschitz_mode",
     [](SgclConfig* c) { c->lipschitz_mode = LipschitzMode::kExact; }},
    {"semantic_pooling", [](SgclConfig* c) { c->semantic_pooling = false; }},
    {"generator_loss_weight",
     [](SgclConfig* c) { c->generator_loss_weight = 0.125f; }},
    {"learning_rate", [](SgclConfig* c) { c->learning_rate = 2e-3f; }},
    {"epochs", [](SgclConfig* c) { c->epochs = 5; }},
    {"batch_size", [](SgclConfig* c) { c->batch_size = 4; }},
    {"grad_clip", [](SgclConfig* c) { c->grad_clip = 1.0f; }},
};

TEST(ConfigFingerprintTest, StableAndSensitive) {
  const SgclConfig base = SmallConfig(7);
  EXPECT_EQ(ConfigFingerprint(base), ConfigFingerprint(base));
  for (const ConfigMutation& c : kConfigMutations) {
    SgclConfig mutated = base;
    c.mutate(&mutated);
    EXPECT_NE(ConfigFingerprint(mutated), ConfigFingerprint(base)) << c.name;
  }
}

TEST(ConfigBytesTest, ParseReproducesEveryField) {
  std::vector<SgclConfig> configs = {SmallConfig(7)};
  for (const ConfigMutation& c : kConfigMutations) {
    configs.push_back(SmallConfig(7));
    c.mutate(&configs.back());
  }
  for (const SgclConfig& want : configs) {
    auto got = ParseConfig(SerializeConfig(want), "test");
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->encoder.arch, want.encoder.arch);
    EXPECT_EQ(got->encoder.in_dim, want.encoder.in_dim);
    EXPECT_EQ(got->encoder.hidden_dim, want.encoder.hidden_dim);
    EXPECT_EQ(got->encoder.num_layers, want.encoder.num_layers);
    EXPECT_EQ(got->encoder.pooling, want.encoder.pooling);
    EXPECT_EQ(got->proj_dim, want.proj_dim);
    EXPECT_EQ(got->tau, want.tau);
    EXPECT_EQ(got->lambda_c, want.lambda_c);
    EXPECT_EQ(got->lambda_w, want.lambda_w);
    EXPECT_EQ(got->rho, want.rho);
    EXPECT_EQ(got->augmentation, want.augmentation);
    EXPECT_EQ(got->lipschitz_mode, want.lipschitz_mode);
    EXPECT_EQ(got->semantic_pooling, want.semantic_pooling);
    EXPECT_EQ(got->generator_loss_weight, want.generator_loss_weight);
    EXPECT_EQ(got->learning_rate, want.learning_rate);
    EXPECT_EQ(got->epochs, want.epochs);
    EXPECT_EQ(got->batch_size, want.batch_size);
    EXPECT_EQ(got->grad_clip, want.grad_clip);
    EXPECT_EQ(ConfigFingerprint(*got), ConfigFingerprint(want));
  }
}

// `bytes` with the little-endian value `v` written over offset `at`.
template <typename T>
std::string Patched(std::string bytes, size_t at, T v) {
  std::memcpy(&bytes[at], &v, sizeof(v));
  return bytes;
}

TEST(ConfigBytesTest, MalformedBytesAreInvalidArgument) {
  const std::string bytes = SerializeConfig(SmallConfig(7));
  ASSERT_EQ(bytes.size(), 120u);
  std::vector<std::string> bad;
  for (size_t len = 0; len < bytes.size(); ++len) {
    bad.push_back(bytes.substr(0, len));
  }
  bad.push_back(bytes + "x");
  // Field offsets of the canonical dump: each enum (and the bool) one
  // past its range, then each retired slot holding another value.
  bad.push_back(Patched<uint32_t>(bytes, 0, 4));    // arch
  bad.push_back(Patched<uint32_t>(bytes, 28, 3));   // pooling
  bad.push_back(Patched<uint32_t>(bytes, 72, 3));   // augmentation
  bad.push_back(Patched<uint32_t>(bytes, 76, 2));   // lipschitz_mode
  bad.push_back(Patched<uint32_t>(bytes, 88, 2));   // semantic_pooling
  bad.push_back(Patched<int64_t>(bytes, 32, 3));    // retired gat_heads
  bad.push_back(Patched<uint32_t>(bytes, 40, 1));   // retired layer norm
  bad.push_back(Patched<int64_t>(bytes, 80, 512));  // retired chunk size
  bad.push_back(Patched<int64_t>(bytes, 12, 0));    // hidden_dim: Validate
  for (size_t i = 0; i < bad.size(); ++i) {
    auto parsed = ParseConfig(bad[i], "bad");
    ASSERT_FALSE(parsed.ok()) << "case " << i;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "case " << i << ": " << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("bad config section"),
              std::string::npos)
        << parsed.status().ToString();
  }
  // The valid field values at those offsets parse.
  EXPECT_TRUE(ParseConfig(Patched<uint32_t>(bytes, 0, 3), "ok").ok());
  EXPECT_TRUE(ParseConfig(Patched<uint32_t>(bytes, 72, 2), "ok").ok());
}

TEST(TrainStateTest, SerializeParseRoundTrip) {
  const TrainState state = MakeState();
  const std::string bytes = SerializeTrainState(state);
  auto parsed = ParseTrainState(bytes, "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->config_bytes, state.config_bytes);
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
  EXPECT_EQ(parsed->batch_cursor, state.batch_cursor);
  EXPECT_EQ(parsed->partial_loss_sum, state.partial_loss_sum);
  EXPECT_EQ(parsed->source_fingerprint, state.source_fingerprint);
  EXPECT_EQ(parsed->train_seed, state.train_seed);
  EXPECT_EQ(parsed->grad_accum, state.grad_accum);
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

// Every cursor field is required: a cursor section one field short
// (CRC recomputed, so only the parser can object) is rejected, as is a
// round size of 0.
TEST(TrainStateTest, GradAccumRoundTripsAndIsRequired) {
  TrainState state = MakeState();
  state.grad_accum = 4;
  const std::string bytes = SerializeTrainState(state);
  auto parsed = ParseTrainState(bytes, "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->grad_accum, 4u);

  auto sections = ParseCheckpointV2(bytes, "strip");
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  ASSERT_EQ((*sections)[4].id,
            static_cast<uint32_t>(CheckpointSectionId::kCursor));
  std::string& cursor = (*sections)[4].payload;
  cursor.resize(cursor.size() - sizeof(uint32_t));
  auto short_cursor =
      ParseTrainState(SerializeCheckpointV2(*sections), "short");
  ASSERT_FALSE(short_cursor.ok());
  EXPECT_NE(short_cursor.status().message().find("cursor section"),
            std::string::npos)
      << short_cursor.status().ToString();

  state.grad_accum = 0;
  EXPECT_EQ(ParseTrainState(SerializeTrainState(state), "zero")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A count no payload could back (CRC recomputed, so only the parser can
// object) fails as corrupt instead of allocating first.
TEST(TrainStateTest, HugeCountsFailWithoutAllocating) {
  const TrainState state = MakeState();
  const int64_t huge = int64_t{1} << 40;
  // The optimizer moment count follows `t`; the cursor's epoch-time count
  // follows three i64s, the 5-entry order and the 3 losses.
  const std::pair<size_t, size_t> fields[] = {{2, 8}, {4, 24 + 48 + 20}};
  for (const auto& [section, offset] : fields) {
    auto sections = ParseCheckpointV2(SerializeTrainState(state), "huge");
    ASSERT_TRUE(sections.ok()) << sections.status().ToString();
    std::string& payload = (*sections)[section].payload;
    payload = Patched<int64_t>(payload, offset, huge);
    auto parsed = ParseTrainState(SerializeCheckpointV2(*sections), "huge");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "section " << section << ": " << parsed.status().ToString();
  }
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

// A model file and a training checkpoint of the same run both rebuild
// the trained model: the config section gives the architecture, kModel
// every weight (LoadModel's init seed differs from the trainer's).
TEST(ModelFileTest, LoadModelRebuildsEveryArchBitwise) {
  GraphDataset ds = SmallDataset();
  std::vector<const Graph*> graphs;
  for (int64_t i = 0; i < ds.size(); ++i) graphs.push_back(&ds.graph(i));
  for (GnnArch arch :
       {GnnArch::kGin, GnnArch::kGcn, GnnArch::kGat, GnnArch::kSage}) {
    SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/1);
    cfg.encoder.arch = arch;
    const std::string dir =
        TmpDir(std::string("model_file_") + GnnArchToString(arch));
    SgclTrainer trainer(cfg, /*seed=*/11);
    PretrainOptions options;
    options.checkpoint_dir = dir;
    ASSERT_TRUE(trainer.Pretrain(ds, {}, options).ok());
    const std::string model_path = dir + "/model.ckpt";
    ASSERT_TRUE(SaveModel(trainer.model(), model_path).ok());
    const std::vector<float> want =
        trainer.model().EmbedGraphs(graphs).values();
    for (const std::string& path : {model_path, CheckpointFileName(dir, 1)}) {
      auto loaded = LoadModel(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ((*loaded)->config().encoder.arch, arch) << path;
      EXPECT_EQ((*loaded)->EmbedGraphs(graphs).values(), want) << path;
    }
  }
}

// Files without config bytes (a kModel-only file, a config section that
// holds an 8-byte fingerprint) are errors that name the config section.
TEST(ModelFileTest, FilesWithoutConfigBytesAreRejected) {
  const std::string dir = TmpDir("model_file_no_config");
  Rng rng(3);
  const SgclModel model(SmallConfig(7), &rng);
  const std::string params_path = dir + "/params.ckpt";
  ASSERT_TRUE(SaveCheckpoint(model, params_path).ok());
  auto params_only = LoadModel(params_path);
  ASSERT_FALSE(params_only.ok());
  EXPECT_NE(params_only.status().message().find("config section"),
            std::string::npos)
      << params_only.status().ToString();

  TrainState state = MakeState();
  state.config_bytes = std::string(8, '\x5a');
  const std::string ckpt_path = CheckpointFileName(dir, state.next_epoch);
  ASSERT_TRUE(SaveTrainCheckpoint(state, ckpt_path).ok());
  for (const Status& st : {LoadModel(ckpt_path).status(),
                           LoadTrainCheckpoint(ckpt_path).status()}) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("config section"), std::string::npos)
        << st.ToString();
  }
}

// The parameter count a config implies, computed without building the
// model, is the built model's for every encoder architecture; a count
// past int64_t is nullopt, not a wrapped value.
TEST(ModelFileTest, NumParametersForMatchesTheBuiltModel) {
  for (GnnArch arch :
       {GnnArch::kGin, GnnArch::kGcn, GnnArch::kGat, GnnArch::kSage}) {
    for (const int layers : {1, 3}) {
      SgclConfig cfg = SmallConfig(7);
      cfg.encoder.arch = arch;
      cfg.encoder.num_layers = layers;
      cfg.proj_dim = 5;
      Rng rng(4);
      const SgclModel model(cfg, &rng);
      SCOPED_TRACE(::testing::Message() << GnnArchToString(arch) << ", "
                                        << layers << " layers");
      EXPECT_EQ(GnnEncoder::NumParametersFor(cfg.encoder),
                model.encoder_k().NumParameters());
      EXPECT_EQ(SgclModel::NumParametersFor(cfg), model.NumParameters());
    }
  }
  SgclConfig huge = MakeUnsupervisedConfig(7);
  huge.encoder.hidden_dim = int64_t{1} << 40;
  EXPECT_FALSE(SgclModel::NumParametersFor(huge).has_value());
}

// hidden_dim = 2^40 passes Validate(), but the model it describes cannot
// fit a small model's kModel section: LoadModel rejects the file before
// it allocates, where it used to throw std::bad_alloc.
TEST(ModelFileTest, ConfigTooLargeForItsModelSectionIsRejected) {
  const std::string dir = TmpDir("model_file_oversized_config");
  Rng rng(5);
  const SgclModel model(MakeUnsupervisedConfig(7), &rng);
  SgclConfig huge = MakeUnsupervisedConfig(7);
  huge.encoder.hidden_dim = int64_t{1} << 40;
  ASSERT_TRUE(huge.Validate().ok());
  std::vector<CheckpointSection> sections;
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kConfig),
                      SerializeConfig(huge)});
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kModel),
                      SerializeModuleParams(model.Parameters())});
  const std::string path = dir + "/oversized.ckpt";
  ASSERT_TRUE(AtomicWriteFile(path, SerializeCheckpointV2(sections)).ok());
  auto loaded = LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("model section"),
            std::string::npos)
      << loaded.status().ToString();
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

// Seed 0 is a seed like any other: the checkpoint's train_seed of 0
// keys the resumed batches, not the resuming trainer's seed.
TEST(TrainerCheckpointTest, SeedZeroRunResumesBitwise) {
  GraphDataset ds = SmallDataset();
  SgclConfig cfg = SmallConfig(ds.feat_dim(), /*epochs=*/3);
  const std::string dir = TmpDir("trainer_resume_seed0");
  SgclTrainer trainer(cfg, /*seed=*/0);
  PretrainOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_keep_last = 0;
  auto full = trainer.Pretrain(ds, {}, options);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  SgclTrainer resumed(cfg, /*seed=*/7);
  PretrainOptions resume_options;
  resume_options.resume_from = CheckpointFileName(dir, 1);
  auto rest = resumed.Pretrain(ds, {}, resume_options);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(rest->epoch_losses, full->epoch_losses);
  const std::vector<Tensor> want = trainer.model().Parameters();
  const std::vector<Tensor> got = resumed.model().Parameters();
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].values(), want[k].values()) << "parameter " << k;
  }
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
