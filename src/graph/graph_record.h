// Wire format for one Graph record inside a shard of the on-disk store
// (data/shard_store.h), the one file format for graphs.
//
// Layout (all little-endian, length-prefixed vectors as in common/io.h):
//   i64 num_nodes, i64 feat_dim, f32vec features, i32vec edge_src,
//   i32vec edge_dst, i64 label, i64 scaffold_id, f32vec task_labels,
//   str semantic_mask (raw uint8 bytes; empty when unknown).
// Undirected edges appear in both directions; the parser re-adds them via
// AddUndirectedEdge, which dedups, so a serialize/parse round trip is
// bit-identical on the directed edge lists.
#ifndef SGCL_GRAPH_GRAPH_RECORD_H_
#define SGCL_GRAPH_GRAPH_RECORD_H_

#include "common/io.h"
#include "common/status.h"
#include "graph/graph.h"

namespace sgcl {

// Sanity caps shared by every graph-record reader so corrupt headers can
// never trigger huge allocations.
inline constexpr int64_t kMaxRecordGraphs = int64_t{1} << 24;
inline constexpr int64_t kMaxRecordNodes = int64_t{1} << 24;
inline constexpr int64_t kMaxRecordFeatureEntries = int64_t{1} << 26;

void AppendGraphRecord(const Graph& graph, BufferWriter* writer);

// Decodes one record at the reader's cursor. Structural errors (negative
// sizes, edge indices outside the graph, payload/count mismatches) return
// InvalidArgument/OutOfRange without consuming a defined amount of input,
// so callers should discard the reader on failure.
Result<Graph> ParseGraphRecord(BufferReader* reader);

}  // namespace sgcl

#endif  // SGCL_GRAPH_GRAPH_RECORD_H_
