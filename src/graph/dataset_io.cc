#include "graph/dataset_io.h"

#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/io.h"
#include "common/string_util.h"
#include "graph/graph_record.h"

namespace sgcl {
namespace {

constexpr uint32_t kMagic = 0x53474444u;  // "SGDD"
constexpr uint32_t kLegacyVersion = 1;
// v2 serializes shared graph records (graph/graph_record.h), appends a
// whole-file CRC32, and publishes through AtomicWriteFile so a crashed
// save never leaves a torn dataset under the final name.
constexpr uint32_t kVersion = 2;

Status CheckHeaderCounts(int64_t size, int64_t num_classes,
                         int64_t num_tasks) {
  if (size < 0 || size > kMaxRecordGraphs || num_classes < 0 ||
      num_classes > (1 << 20) || num_tasks < 0 || num_tasks > (1 << 20)) {
    return Status::InvalidArgument("corrupt dataset header");
  }
  return Status::OK();
}

// The pre-CRC v1 layout (the BufferWriter value vocabulary written
// straight to a file; semantic mask stored as an i32 vector). Kept so
// corpora frozen by older builds stay loadable.
Result<GraphDataset> ParseLegacyV1(BufferReader* reader,
                                   const std::string& path) {
  const std::string name = reader->ReadString();
  const int64_t num_classes = reader->ReadI64();
  const int64_t num_tasks = reader->ReadI64();
  const int64_t size = reader->ReadI64();
  if (!reader->ok()) return Status::InvalidArgument("corrupt dataset header");
  SGCL_RETURN_NOT_OK(CheckHeaderCounts(size, num_classes, num_tasks));
  GraphDataset dataset(name, static_cast<int>(num_classes),
                       static_cast<int>(num_tasks));
  dataset.Reserve(size);
  for (int64_t i = 0; i < size; ++i) {
    const int64_t num_nodes = reader->ReadI64();
    const int64_t feat_dim = reader->ReadI64();
    if (!reader->ok() || num_nodes < 0 || num_nodes > kMaxRecordNodes ||
        feat_dim < 0 || num_nodes * feat_dim > kMaxRecordFeatureEntries) {
      return Status::InvalidArgument("corrupt graph header");
    }
    Graph g(num_nodes, feat_dim);
    std::vector<float> feats = reader->ReadFloatVector();
    if (static_cast<int64_t>(feats.size()) != num_nodes * feat_dim) {
      return Status::InvalidArgument("corrupt feature payload");
    }
    g.mutable_features() = std::move(feats);
    std::vector<int32_t> src = reader->ReadI32Vector();
    std::vector<int32_t> dst = reader->ReadI32Vector();
    if (!reader->ok() || src.size() != dst.size()) {
      return Status::InvalidArgument("corrupt edge payload");
    }
    // Undirected edges appear twice; AddUndirectedEdge dedups.
    for (size_t e = 0; e < src.size(); ++e) {
      if (src[e] < 0 || src[e] >= num_nodes || dst[e] < 0 ||
          dst[e] >= num_nodes) {
        return Status::OutOfRange("edge index outside graph");
      }
      g.AddUndirectedEdge(src[e], dst[e]);
    }
    g.set_label(static_cast<int>(reader->ReadI64()));
    g.set_scaffold_id(static_cast<int>(reader->ReadI64()));
    g.set_task_labels(reader->ReadFloatVector());
    std::vector<int32_t> mask32 = reader->ReadI32Vector();
    if (!reader->ok()) return Status::InvalidArgument("corrupt graph trailer");
    if (!mask32.empty()) {
      g.set_semantic_mask(
          std::vector<uint8_t>(mask32.begin(), mask32.end()));
    }
    SGCL_RETURN_NOT_OK(dataset.TryAdd(std::move(g)));
  }
  SGCL_RETURN_NOT_OK(reader->Finish(path));
  return dataset;
}

}  // namespace

Status SaveDataset(const GraphDataset& dataset, const std::string& path) {
  BufferWriter writer;
  writer.WriteU32(kMagic);
  writer.WriteU32(kVersion);
  writer.WriteString(dataset.name());
  writer.WriteI64(dataset.num_classes());
  writer.WriteI64(dataset.num_tasks());
  writer.WriteI64(dataset.size());
  for (int64_t i = 0; i < dataset.size(); ++i) {
    AppendGraphRecord(dataset.graph(i), &writer);
  }
  const uint32_t crc = Crc32(writer.bytes());
  writer.WriteU32(crc);
  return AtomicWriteFile(path, writer.bytes());
}

Result<GraphDataset> LoadDataset(const std::string& path) {
  SGCL_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  BufferReader reader(bytes);
  if (reader.ReadU32() != kMagic || !reader.ok()) {
    return Status::InvalidArgument(
        StrFormat("%s is not an SGCL dataset file", path.c_str()));
  }
  const uint32_t version = reader.ReadU32();
  if (version == kLegacyVersion) {
    SGCL_ASSIGN_OR_RETURN(GraphDataset dataset,
                          ParseLegacyV1(&reader, path));
    SGCL_RETURN_NOT_OK(dataset.Validate());
    return dataset;
  }
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported dataset version %u in %s", version,
                  path.c_str()));
  }
  if (bytes.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument("dataset file too short");
  }
  // The trailing 4 bytes hold the CRC of everything before them; check
  // before trusting any length field in the payload.
  const size_t body_size = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body_size, sizeof(stored_crc));
  if (Crc32(bytes.data(), body_size) != stored_crc) {
    return Status::InvalidArgument(
        StrFormat("%s failed its CRC check (truncated or corrupt)",
                  path.c_str()));
  }
  const std::string name = reader.ReadString();
  const int64_t num_classes = reader.ReadI64();
  const int64_t num_tasks = reader.ReadI64();
  const int64_t size = reader.ReadI64();
  if (!reader.ok()) return Status::InvalidArgument("corrupt dataset header");
  SGCL_RETURN_NOT_OK(CheckHeaderCounts(size, num_classes, num_tasks));
  GraphDataset dataset(name, static_cast<int>(num_classes),
                       static_cast<int>(num_tasks));
  dataset.Reserve(size);
  for (int64_t i = 0; i < size; ++i) {
    SGCL_ASSIGN_OR_RETURN(Graph g, ParseGraphRecord(&reader));
    SGCL_RETURN_NOT_OK(dataset.TryAdd(std::move(g)));
  }
  if (reader.position() != body_size) {
    return Status::InvalidArgument(
        StrFormat("trailing bytes in %s", path.c_str()));
  }
  SGCL_RETURN_NOT_OK(dataset.Validate());
  return dataset;
}

}  // namespace sgcl
