#include "graph/graph_source.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/string_util.h"

namespace sgcl {

Result<std::vector<int>> GraphSource::Labels() const {
  if (size() == 0) {
    return Status::FailedPrecondition(
        StrFormat("source %s is empty: no labels", name().c_str()));
  }
  constexpr int64_t kChunk = 4096;
  std::vector<int> labels;
  labels.reserve(static_cast<size_t>(size()));
  std::vector<int64_t> indices;
  for (int64_t start = 0; start < size(); start += kChunk) {
    const int64_t end = std::min(size(), start + kChunk);
    indices.resize(static_cast<size_t>(end - start));
    for (int64_t i = start; i < end; ++i) {
      indices[static_cast<size_t>(i - start)] = i;
    }
    FetchedGraphs chunk;
    SGCL_RETURN_NOT_OK(Fetch(indices, &chunk));
    for (const Graph* g : chunk.graphs()) labels.push_back(g->label());
  }
  return labels;
}

Result<FetchedGraphs> GraphSource::FetchAll() const {
  std::vector<int64_t> indices(static_cast<size_t>(size()));
  for (int64_t i = 0; i < size(); ++i) indices[static_cast<size_t>(i)] = i;
  FetchedGraphs all;
  SGCL_RETURN_NOT_OK(Fetch(indices, &all));
  return all;
}

Status InMemorySource::Fetch(std::span<const int64_t> indices,
                             FetchedGraphs* out) const {
  for (int64_t i : indices) {
    if (i < 0 || i >= borrowed_->size()) {
      return Status::OutOfRange(
          StrFormat("index %lld outside source %s of size %lld",
                    static_cast<long long>(i), borrowed_->name().c_str(),
                    static_cast<long long>(borrowed_->size())));
    }
    out->AppendBorrowed(&borrowed_->graph(i));
  }
  return Status::OK();
}

uint64_t InMemorySource::ContentFingerprint() const { return fingerprint_; }

uint64_t InMemorySource::Fingerprint(const GraphDataset& dataset) {
  // The name's bytes, then each count as 8 little-endian bytes.
  uint64_t h = Fnv1a64(dataset.name());
  const auto mix = [&h](uint64_t v) { h = Fnv1a64(&v, sizeof(v), h); };
  mix(static_cast<uint64_t>(dataset.num_classes()));
  mix(static_cast<uint64_t>(dataset.num_tasks()));
  mix(static_cast<uint64_t>(dataset.size()));
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const Graph& g = dataset.graph(i);
    mix(static_cast<uint64_t>(g.num_nodes()));
    mix(static_cast<uint64_t>(g.num_directed_edges()));
    mix(static_cast<uint64_t>(static_cast<int64_t>(g.label())));
  }
  // Never collide with the "unknown" sentinel.
  return h == 0 ? 1 : h;
}

}  // namespace sgcl
