// JSON wire format for the embedding inference service.
//
// Request (POST /v1/embed and /v1/predict share it):
//   {"graphs": [{"num_nodes": N,
//                "features": [f_00, ..., f_0d, f_10, ...],   // N*feat_dim
//                "edges": [s0, d0, s1, d1, ...]}, ...]}      // undirected
//
// Responses:
//   /v1/embed   -> {"dim": D, "embeddings": [[e_0 ... e_D-1], ...]}
//   /v1/predict -> {"keep_probs": [[p_0 ... p_N-1], ...]}
//
// Parsing is strict: unknown shapes, repeated "graphs", "num_nodes",
// "features" or "edges" keys, out-of-range edge endpoints, and non-finite
// features are InvalidArgument with a message that names the offending
// field or graph, never a crash. Formatting uses %.9g — enough digits
// to round-trip float32 exactly, so a client can compare batched and
// unbatched responses bitwise.
#ifndef SGCL_SERVE_GRAPH_JSON_H_
#define SGCL_SERVE_GRAPH_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace sgcl {
namespace serve {

struct RequestLimits {
  int64_t max_graphs = 64;       // graphs per request
  int64_t max_total_nodes = 2048;  // summed over the request's graphs
};

// Parses a request body into graphs with `feat_dim` features per node.
Result<std::vector<Graph>> ParseGraphsRequest(const std::string& body,
                                              int64_t feat_dim,
                                              const RequestLimits& limits);

// One row of floats per graph ("embeddings" for /v1/embed with the
// trailing "dim", "keep_probs" for /v1/predict).
std::string FormatRowsResponse(const std::string& key,
                               const std::vector<std::vector<float>>& rows,
                               int64_t dim_or_negative);

}  // namespace serve
}  // namespace sgcl

#endif  // SGCL_SERVE_GRAPH_JSON_H_
