#include "nn/checkpoint.h"

#include <utility>

#include "common/crc32.h"
#include "common/io.h"
#include "common/string_util.h"

namespace sgcl {
namespace {

constexpr uint32_t kMagic = 0x5347434cu;  // "SGCL"
constexpr uint32_t kVersionV2 = 2;

// Hard cap on section payloads (1 GiB) so a corrupt size field fails
// fast instead of attempting a huge allocation.
constexpr int64_t kMaxSectionBytes = int64_t{1} << 30;

const char* SectionName(uint32_t id) {
  switch (static_cast<CheckpointSectionId>(id)) {
    case CheckpointSectionId::kConfig:
      return "config";
    case CheckpointSectionId::kModel:
      return "model";
    case CheckpointSectionId::kOptimizer:
      return "optimizer";
    case CheckpointSectionId::kRng:
      return "rng";
    case CheckpointSectionId::kCursor:
      return "cursor";
  }
  return "unknown";
}

}  // namespace

std::string SerializeCheckpointV2(
    const std::vector<CheckpointSection>& sections) {
  BufferWriter writer;
  writer.WriteU32(kMagic);
  writer.WriteU32(kVersionV2);
  writer.WriteU32(static_cast<uint32_t>(sections.size()));
  for (const CheckpointSection& section : sections) {
    writer.WriteU32(section.id);
    writer.WriteI64(static_cast<int64_t>(section.payload.size()));
    writer.WriteBytes(section.payload.data(), section.payload.size());
    writer.WriteU32(Crc32(section.payload));
  }
  return writer.TakeBytes();
}

Result<std::vector<CheckpointSection>> ParseCheckpointV2(
    const std::string& bytes, const std::string& what) {
  BufferReader reader(bytes);
  if (reader.ReadU32() != kMagic || !reader.ok()) {
    return Status::InvalidArgument(
        StrFormat("%s is not an SGCL checkpoint", what.c_str()));
  }
  const uint32_t version = reader.ReadU32();
  if (!reader.ok() || version != kVersionV2) {
    return Status::InvalidArgument(StrFormat(
        "%s has unsupported checkpoint version %u (expected %u)",
        what.c_str(), version, kVersionV2));
  }
  const uint32_t count = reader.ReadU32();
  if (!reader.ok()) {
    return Status::InvalidArgument(
        StrFormat("%s is truncated before the section table", what.c_str()));
  }
  std::vector<CheckpointSection> sections;
  sections.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CheckpointSection section;
    section.id = reader.ReadU32();
    const int64_t size = reader.ReadI64();
    if (!reader.ok() || size < 0 || size > kMaxSectionBytes) {
      return Status::InvalidArgument(StrFormat(
          "%s section %u of %u has a corrupt header", what.c_str(), i + 1,
          count));
    }
    section.payload = reader.ReadRaw(static_cast<size_t>(size));
    const uint32_t stored_crc = reader.ReadU32();
    if (!reader.ok()) {
      return Status::InvalidArgument(StrFormat(
          "%s is truncated inside the %s section (%u of %u)", what.c_str(),
          SectionName(section.id), i + 1, count));
    }
    const uint32_t actual_crc = Crc32(section.payload);
    if (stored_crc != actual_crc) {
      return Status::InvalidArgument(StrFormat(
          "%s %s section failed its CRC32 check (stored %08x, computed "
          "%08x)",
          what.c_str(), SectionName(section.id), stored_crc, actual_crc));
    }
    sections.push_back(std::move(section));
  }
  SGCL_RETURN_NOT_OK(reader.Finish(what));
  return sections;
}

Result<std::string> FindCheckpointSection(
    const std::vector<CheckpointSection>& sections, CheckpointSectionId id,
    const std::string& what) {
  for (const CheckpointSection& section : sections) {
    if (section.id == static_cast<uint32_t>(id)) return section.payload;
  }
  return Status::NotFound(StrFormat("%s has no %s section", what.c_str(),
                                    SectionName(static_cast<uint32_t>(id))));
}

std::string SerializeModuleParams(const std::vector<Tensor>& params) {
  BufferWriter writer;
  writer.WriteI64(static_cast<int64_t>(params.size()));
  for (const Tensor& p : params) {
    writer.WriteI64(static_cast<int64_t>(p.shape().size()));
    for (int64_t d : p.shape()) writer.WriteI64(d);
    writer.WriteFloatVector(p.values());
  }
  return writer.TakeBytes();
}

Status ApplyModuleParams(const std::string& bytes,
                         const std::vector<Tensor>& params,
                         const std::string& what) {
  // Every tensor is parsed and shape-checked before any is written.
  BufferReader reader(bytes);
  const int64_t count = reader.ReadI64();
  if (!reader.ok() || count != static_cast<int64_t>(params.size())) {
    return Status::InvalidArgument(
        StrFormat("%s has %lld tensors, model expects %zu", what.c_str(),
                  static_cast<long long>(count), params.size()));
  }
  std::vector<std::vector<float>> values;
  values.reserve(params.size());
  for (size_t k = 0; k < params.size(); ++k) {
    const int64_t rank = reader.ReadI64();
    if (!reader.ok() || rank < 0 || rank > 8) {
      return Status::InvalidArgument(
          StrFormat("%s tensor %zu has a corrupt header", what.c_str(), k));
    }
    std::vector<int64_t> shape(static_cast<size_t>(rank));
    for (int64_t& d : shape) d = reader.ReadI64();
    if (!reader.ok() || shape != params[k].shape()) {
      return Status::InvalidArgument(StrFormat(
          "%s tensor %zu shape does not match model architecture",
          what.c_str(), k));
    }
    values.push_back(reader.ReadFloatVector());
    if (!reader.ok() ||
        values.back().size() != params[k].impl()->data.size()) {
      return Status::InvalidArgument(
          StrFormat("%s tensor %zu has a corrupt payload", what.c_str(), k));
    }
  }
  SGCL_RETURN_NOT_OK(reader.Finish(what));
  for (size_t k = 0; k < params.size(); ++k) {
    params[k].impl()->data = std::move(values[k]);
  }
  return Status::OK();
}

Status SaveCheckpoint(const Module& module, const std::string& path) {
  std::vector<CheckpointSection> sections;
  sections.push_back(
      {static_cast<uint32_t>(CheckpointSectionId::kModel),
       SerializeModuleParams(module.Parameters())});
  return AtomicWriteFile(path, SerializeCheckpointV2(sections));
}

Status LoadCheckpoint(const std::string& path, Module* module) {
  SGCL_CHECK(module != nullptr);
  SGCL_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  SGCL_ASSIGN_OR_RETURN(const std::vector<CheckpointSection> sections,
                        ParseCheckpointV2(bytes, path));
  SGCL_ASSIGN_OR_RETURN(
      const std::string model_bytes,
      FindCheckpointSection(sections, CheckpointSectionId::kModel, path));
  return ApplyModuleParams(model_bytes, module->Parameters(), path);
}

}  // namespace sgcl
