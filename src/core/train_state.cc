#include "core/train_state.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/io.h"
#include "common/string_util.h"
#include "nn/checkpoint.h"

namespace sgcl {
namespace {

namespace fs = std::filesystem;

constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".sgcl";

std::string SerializeOptimizerSection(const AdamState& state) {
  BufferWriter writer;
  writer.WriteI64(state.t);
  writer.WriteI64(static_cast<int64_t>(state.m.size()));
  for (size_t k = 0; k < state.m.size(); ++k) {
    writer.WriteFloatVector(state.m[k]);
    writer.WriteFloatVector(state.v[k]);
  }
  return writer.TakeBytes();
}

Status ParseOptimizerSection(const std::string& bytes,
                             const std::string& what, AdamState* out) {
  BufferReader reader(bytes);
  out->t = reader.ReadI64();
  const int64_t count = reader.ReadI64();
  if (!reader.ok() || count < 0) {
    return Status::InvalidArgument(
        StrFormat("%s optimizer section has a corrupt header", what.c_str()));
  }
  // No reserve: a corrupt count must fail on the missing bytes, not
  // allocate first.
  out->m.clear();
  out->v.clear();
  for (int64_t k = 0; k < count; ++k) {
    out->m.push_back(reader.ReadFloatVector());
    out->v.push_back(reader.ReadFloatVector());
    if (!reader.ok()) {
      return Status::InvalidArgument(StrFormat(
          "%s optimizer section moment %lld is corrupt", what.c_str(),
          static_cast<long long>(k)));
    }
  }
  return reader.Finish(what + " optimizer section");
}

std::string SerializeRngSection(const RngState& state) {
  BufferWriter writer;
  for (uint64_t word : state.s) writer.WriteU64(word);
  writer.WriteU32(state.has_cached_normal ? 1u : 0u);
  writer.WriteF64(state.cached_normal);
  return writer.TakeBytes();
}

Status ParseRngSection(const std::string& bytes, const std::string& what,
                       RngState* out) {
  BufferReader reader(bytes);
  for (uint64_t& word : out->s) word = reader.ReadU64();
  const uint32_t has_cached = reader.ReadU32();
  out->cached_normal = reader.ReadF64();
  if (!reader.ok() || has_cached > 1) {
    return Status::InvalidArgument(
        StrFormat("%s rng section is corrupt", what.c_str()));
  }
  out->has_cached_normal = has_cached == 1;
  return reader.Finish(what + " rng section");
}

std::string SerializeCursorSection(const TrainState& state) {
  BufferWriter writer;
  writer.WriteI64(state.next_epoch);
  writer.WriteI64(state.total_epochs);
  writer.WriteI64(state.total_batches);
  writer.WriteI64Vector(state.order);
  writer.WriteFloatVector(state.epoch_losses);
  writer.WriteI64(static_cast<int64_t>(state.epoch_seconds.size()));
  for (double s : state.epoch_seconds) writer.WriteF64(s);
  writer.WriteI64(state.batch_cursor);
  writer.WriteF64(state.partial_loss_sum);
  writer.WriteU64(state.source_fingerprint);
  writer.WriteU64(state.train_seed);
  writer.WriteU32(state.grad_accum);
  return writer.TakeBytes();
}

Status ParseCursorSection(const std::string& bytes, const std::string& what,
                          TrainState* out) {
  BufferReader reader(bytes);
  const int64_t next_epoch = reader.ReadI64();
  const int64_t total_epochs = reader.ReadI64();
  out->total_batches = reader.ReadI64();
  out->order = reader.ReadI64Vector();
  out->epoch_losses = reader.ReadFloatVector();
  const int64_t seconds_count = reader.ReadI64();
  if (!reader.ok() || next_epoch < 0 || total_epochs < 0 ||
      next_epoch > total_epochs || seconds_count < 0) {
    return Status::InvalidArgument(
        StrFormat("%s cursor section is corrupt", what.c_str()));
  }
  if (static_cast<int64_t>(out->epoch_losses.size()) != next_epoch ||
      seconds_count != next_epoch) {
    return Status::InvalidArgument(StrFormat(
        "%s cursor section: %zu losses / %lld timings for %lld completed "
        "epochs",
        what.c_str(), out->epoch_losses.size(),
        static_cast<long long>(seconds_count),
        static_cast<long long>(next_epoch)));
  }
  out->next_epoch = static_cast<int>(next_epoch);
  out->total_epochs = static_cast<int>(total_epochs);
  out->epoch_seconds.resize(static_cast<size_t>(seconds_count));
  for (double& s : out->epoch_seconds) s = reader.ReadF64();
  out->batch_cursor = reader.ReadI64();
  out->partial_loss_sum = reader.ReadF64();
  out->source_fingerprint = reader.ReadU64();
  out->train_seed = reader.ReadU64();
  out->grad_accum = reader.ReadU32();
  if (!reader.ok() || out->batch_cursor < 0 ||
      (out->batch_cursor > 0 && next_epoch >= total_epochs) ||
      out->grad_accum < 1 || out->batch_cursor % out->grad_accum > 0) {
    return Status::InvalidArgument(StrFormat(
        "%s cursor section has a corrupt batch cursor or round size",
        what.c_str()));
  }
  return reader.Finish(what + " cursor section");
}

// Resume-order key of a checkpoint file: an end-of-epoch file
// "ckpt-<e>.sgcl" maps to (e, 0) and a mid-epoch file "ckpt-<e>-b<n>.sgcl"
// to (e, n). Epoch e's mid-epoch checkpoints carry next_epoch == e, so
// (epoch, batch) lexicographic order is exactly training progress order.
struct CheckpointKey {
  int64_t epoch = 0;
  int64_t batch = 0;
  bool operator<(const CheckpointKey& o) const {
    return epoch != o.epoch ? epoch < o.epoch : batch < o.batch;
  }
};

bool ParseDigits(const std::string& digits, int64_t* out) {
  if (digits.empty()) return false;
  int64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
    if (v > (int64_t{1} << 40)) return false;
  }
  *out = v;
  return true;
}

// The key encoded in a checkpoint file name, or nothing for foreign
// names (including the ".tmp" files a crashed atomic write leaves
// behind).
std::optional<CheckpointKey> KeyFromFileName(const std::string& name) {
  const size_t prefix_len = sizeof(kCheckpointPrefix) - 1;
  const size_t suffix_len = sizeof(kCheckpointSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return std::nullopt;
  if (name.compare(0, prefix_len, kCheckpointPrefix) != 0) {
    return std::nullopt;
  }
  if (name.compare(name.size() - suffix_len, suffix_len,
                   kCheckpointSuffix) != 0) {
    return std::nullopt;
  }
  const std::string body =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  CheckpointKey key;
  const size_t sep = body.find("-b");
  if (sep == std::string::npos) {
    if (!ParseDigits(body, &key.epoch)) return std::nullopt;
    return key;
  }
  if (!ParseDigits(body.substr(0, sep), &key.epoch)) return std::nullopt;
  if (!ParseDigits(body.substr(sep + 2), &key.batch)) return std::nullopt;
  if (key.batch <= 0) return std::nullopt;
  return key;
}

// All complete checkpoints in `dir` as (key, path), sorted by key.
std::vector<std::pair<CheckpointKey, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<CheckpointKey, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (const auto key = KeyFromFileName(name); key.has_value()) {
      found.emplace_back(*key, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) {
              return a.first < b.first ||
                     (!(b.first < a.first) && a.second < b.second);
            });
  return found;
}

}  // namespace

std::string SerializeConfig(const SgclConfig& config) {
  // Append-only: new fields go at the end, so the bytes (and the
  // fingerprint over them) of every existing config stay stable.
  BufferWriter writer;
  writer.WriteU32(static_cast<uint32_t>(config.encoder.arch));
  writer.WriteI64(config.encoder.in_dim);
  writer.WriteI64(config.encoder.hidden_dim);
  writer.WriteI64(config.encoder.num_layers);
  writer.WriteU32(static_cast<uint32_t>(config.encoder.pooling));
  // Retired slots keep the value every run had, so fingerprints (and
  // the checkpoints that carry them) stay stable: 2 was
  // EncoderConfig::gat_heads, 0u was use_layer_norm, and 1024 below was
  // the masked-view chunk size (SgclConfig::max_view_nodes).
  writer.WriteI64(2);
  writer.WriteU32(0u);
  writer.WriteI64(config.proj_dim);
  writer.WriteF32(config.tau);
  writer.WriteF32(config.lambda_c);
  writer.WriteF32(config.lambda_w);
  writer.WriteF64(config.rho);
  writer.WriteU32(static_cast<uint32_t>(config.augmentation));
  writer.WriteU32(static_cast<uint32_t>(config.lipschitz_mode));
  writer.WriteI64(1024);
  writer.WriteU32(config.semantic_pooling ? 1u : 0u);
  writer.WriteF32(config.generator_loss_weight);
  writer.WriteF32(config.learning_rate);
  writer.WriteI64(config.epochs);
  writer.WriteI64(config.batch_size);
  writer.WriteF32(config.grad_clip);
  return writer.TakeBytes();
}

Result<SgclConfig> ParseConfig(const std::string& bytes,
                               const std::string& what) {
  BufferReader reader(bytes);
  SgclConfig config;
  config.encoder.arch = static_cast<GnnArch>(reader.ReadU32());
  config.encoder.in_dim = reader.ReadI64();
  config.encoder.hidden_dim = reader.ReadI64();
  config.encoder.num_layers = static_cast<int>(reader.ReadI64());
  config.encoder.pooling = static_cast<PoolingKind>(reader.ReadU32());
  reader.ReadI64();  // retired slots: the round trip below checks them
  reader.ReadU32();
  config.proj_dim = reader.ReadI64();
  config.tau = reader.ReadF32();
  config.lambda_c = reader.ReadF32();
  config.lambda_w = reader.ReadF32();
  config.rho = reader.ReadF64();
  config.augmentation = static_cast<AugmentationMode>(reader.ReadU32());
  config.lipschitz_mode = static_cast<LipschitzMode>(reader.ReadU32());
  reader.ReadI64();
  config.semantic_pooling = reader.ReadU32() != 0;
  config.generator_loss_weight = reader.ReadF32();
  config.learning_rate = reader.ReadF32();
  config.epochs = static_cast<int>(reader.ReadI64());
  config.batch_size = static_cast<int>(reader.ReadI64());
  config.grad_clip = reader.ReadF32();
  const std::string section = what + " config section";
  SGCL_RETURN_NOT_OK(reader.Finish(section));
  // Canonical bytes only: every enum in range, and a dump that
  // re-serializes unchanged (retired slots at their values, a 0/1 flag,
  // ints that fit an int).
  const auto past = [](auto value, auto last) {
    return static_cast<uint32_t>(value) > static_cast<uint32_t>(last);
  };
  if (past(config.encoder.arch, GnnArch::kSage) ||
      past(config.encoder.pooling, PoolingKind::kMax) ||
      past(config.augmentation, AugmentationMode::kRandom) ||
      past(config.lipschitz_mode, LipschitzMode::kAttentionApprox) ||
      SerializeConfig(config) != bytes) {
    return Status::InvalidArgument(
        StrFormat("%s holds a value out of range", section.c_str()));
  }
  if (Status valid = config.Validate(); !valid.ok()) {
    return Status::InvalidArgument(
        StrFormat("%s: %s", section.c_str(), valid.message().c_str()));
  }
  return config;
}

uint64_t ConfigFingerprint(const SgclConfig& config) {
  return Fnv1a64(SerializeConfig(config));
}

Status SaveModel(const SgclModel& model, const std::string& path) {
  std::vector<CheckpointSection> sections;
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kConfig),
                      SerializeConfig(model.config())});
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kModel),
                      SerializeModuleParams(model.Parameters())});
  return AtomicWriteFile(path, SerializeCheckpointV2(sections));
}

Result<std::unique_ptr<SgclModel>> LoadModel(const std::string& path) {
  SGCL_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  SGCL_ASSIGN_OR_RETURN(const std::vector<CheckpointSection> sections,
                        ParseCheckpointV2(bytes, path));
  SGCL_ASSIGN_OR_RETURN(
      const std::string config_bytes,
      FindCheckpointSection(sections, CheckpointSectionId::kConfig, path));
  SGCL_ASSIGN_OR_RETURN(const SgclConfig config,
                        ParseConfig(config_bytes, path));
  SGCL_ASSIGN_OR_RETURN(
      const std::string model_bytes,
      FindCheckpointSection(sections, CheckpointSectionId::kModel, path));
  // The config's widths are outside input: before the model is built, the
  // parameters they imply must fit the model section, 4 bytes each.
  const std::optional<int64_t> num_params = SgclModel::NumParametersFor(config);
  if (!num_params.has_value() ||
      *num_params > static_cast<int64_t>(model_bytes.size() / sizeof(float))) {
    return Status::InvalidArgument(StrFormat(
        "%s config section describes more parameters than its %zu-byte "
        "model section holds",
        path.c_str(), model_bytes.size()));
  }
  Rng rng(1);
  auto model = std::make_unique<SgclModel>(config, &rng);
  SGCL_RETURN_NOT_OK(
      ApplyModuleParams(model_bytes, model->Parameters(), path));
  return model;
}

std::string SerializeTrainState(const TrainState& state) {
  std::vector<CheckpointSection> sections;
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kConfig),
                      state.config_bytes});
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kModel),
                      state.model_params});
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kOptimizer),
                      SerializeOptimizerSection(state.optimizer)});
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kRng),
                      SerializeRngSection(state.rng)});
  sections.push_back({static_cast<uint32_t>(CheckpointSectionId::kCursor),
                      SerializeCursorSection(state)});
  return SerializeCheckpointV2(sections);
}

Result<TrainState> ParseTrainState(const std::string& bytes,
                                   const std::string& what) {
  SGCL_ASSIGN_OR_RETURN(const std::vector<CheckpointSection> sections,
                        ParseCheckpointV2(bytes, what));
  TrainState state;

  SGCL_ASSIGN_OR_RETURN(
      state.config_bytes,
      FindCheckpointSection(sections, CheckpointSectionId::kConfig, what));
  SGCL_RETURN_NOT_OK(ParseConfig(state.config_bytes, what).status());

  SGCL_ASSIGN_OR_RETURN(
      state.model_params,
      FindCheckpointSection(sections, CheckpointSectionId::kModel, what));

  SGCL_ASSIGN_OR_RETURN(
      const std::string optimizer_bytes,
      FindCheckpointSection(sections, CheckpointSectionId::kOptimizer, what));
  SGCL_RETURN_NOT_OK(
      ParseOptimizerSection(optimizer_bytes, what, &state.optimizer));

  SGCL_ASSIGN_OR_RETURN(
      const std::string rng_bytes,
      FindCheckpointSection(sections, CheckpointSectionId::kRng, what));
  SGCL_RETURN_NOT_OK(ParseRngSection(rng_bytes, what, &state.rng));

  SGCL_ASSIGN_OR_RETURN(
      const std::string cursor_bytes,
      FindCheckpointSection(sections, CheckpointSectionId::kCursor, what));
  SGCL_RETURN_NOT_OK(ParseCursorSection(cursor_bytes, what, &state));

  return state;
}

Status SaveTrainCheckpoint(const TrainState& state, const std::string& path) {
  if (auto fault = FaultInjector::Global().Check("checkpoint/serialize");
      fault.has_value()) {
    // Phase boundary: dies before any byte reaches disk.
    if (*fault == FaultKind::kCrash) {
      return SimulatedCrash("checkpoint/serialize");
    }
    return Status::Internal(StrFormat(
        "injected failure serializing checkpoint %s", path.c_str()));
  }
  return AtomicWriteFile(path, SerializeTrainState(state));
}

Result<TrainState> LoadTrainCheckpoint(const std::string& path) {
  SGCL_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  return ParseTrainState(bytes, path);
}

std::string CheckpointFileName(const std::string& dir, int next_epoch) {
  return StrFormat("%s/%s%06d%s", dir.c_str(), kCheckpointPrefix, next_epoch,
                   kCheckpointSuffix);
}

std::string MidEpochCheckpointFileName(const std::string& dir, int epoch,
                                       int64_t batch_cursor) {
  return StrFormat("%s/%s%06d-b%08lld%s", dir.c_str(), kCheckpointPrefix,
                   epoch, static_cast<long long>(batch_cursor),
                   kCheckpointSuffix);
}

Result<std::string> FindLatestCheckpoint(const std::string& dir) {
  const auto found = ListCheckpoints(dir);
  if (found.empty()) {
    return Status::NotFound(
        StrFormat("no checkpoints under %s", dir.c_str()));
  }
  return found.back().second;
}

Status PruneCheckpoints(const std::string& dir, int keep_last) {
  if (keep_last <= 0) return Status::OK();
  auto found = ListCheckpoints(dir);
  if (static_cast<int64_t>(found.size()) <= keep_last) return Status::OK();
  if (auto fault = FaultInjector::Global().Check("checkpoint/prune");
      fault.has_value()) {
    // Pruning is after the new checkpoint is durable; dying here only
    // leaves extra old checkpoints behind.
    if (*fault == FaultKind::kCrash) return SimulatedCrash("checkpoint/prune");
    return Status::Internal(
        StrFormat("injected failure pruning checkpoints in %s", dir.c_str()));
  }
  const size_t delete_count = found.size() - static_cast<size_t>(keep_last);
  for (size_t i = 0; i < delete_count; ++i) {
    std::error_code ec;
    std::filesystem::remove(found[i].second, ec);
    if (ec) {
      return Status::Internal(StrFormat("cannot delete %s: %s",
                                        found[i].second.c_str(),
                                        ec.message().c_str()));
    }
  }
  return Status::OK();
}

}  // namespace sgcl
