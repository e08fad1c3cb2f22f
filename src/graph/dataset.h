// A named collection of graphs with task metadata and summary statistics.
//
// Error contract: accessors that have no meaningful value on an empty or
// malformed dataset are checked — feat_dim()/graph() are fatal on misuse
// (programming errors in trusted code), while FeatDim()/Labels()/TryAdd
// return Status/Result for untrusted inputs (CLI paths, files).
// Feature-dim agreement is enforced at Add() time: the first graph pins
// the dataset's feature width and every later Add must match, so a
// mixed-width dataset can never be constructed silently.
#ifndef SGCL_GRAPH_DATASET_H_
#define SGCL_GRAPH_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace sgcl {

struct DatasetStats {
  int64_t num_graphs = 0;
  double avg_nodes = 0.0;
  double avg_edges = 0.0;  // undirected
  int num_classes = 0;
};

class GraphDataset {
 public:
  GraphDataset() = default;
  GraphDataset(std::string name, int num_classes, int num_tasks = 1)
      : name_(std::move(name)), num_classes_(num_classes),
        num_tasks_(num_tasks) {}

  const std::string& name() const { return name_; }
  int num_classes() const { return num_classes_; }
  // >1 marks a multi-task binary-classification dataset (MoleculeNet-like).
  int num_tasks() const { return num_tasks_; }
  int64_t size() const { return static_cast<int64_t>(graphs_.size()); }

  // Feature width shared by all graphs. Fatal on an empty dataset —
  // callers that may legitimately hold an empty dataset use FeatDim().
  int64_t feat_dim() const {
    SGCL_CHECK(!graphs_.empty());
    return graphs_[0].feat_dim();
  }
  // FailedPrecondition on an empty dataset instead of a silent 0.
  [[nodiscard]] Result<int64_t> FeatDim() const;

  const Graph& graph(int64_t i) const {
    SGCL_CHECK(i >= 0 && i < size());
    return graphs_[i];
  }
  const std::vector<Graph>& graphs() const { return graphs_; }

  // Appends `g`; feature-dim disagreement with the graphs already present
  // is fatal (generators are trusted to be consistent).
  void Add(Graph g);
  // Status-returning Add for untrusted input (file loads): rejects a
  // feature-dim mismatch with InvalidArgument and leaves the dataset
  // unchanged.
  [[nodiscard]] Status TryAdd(Graph g);
  void Reserve(int64_t n) { graphs_.reserve(n); }

  // Single-task class labels of all graphs. FailedPrecondition when the
  // dataset is empty.
  [[nodiscard]] Result<std::vector<int>> Labels() const;

  DatasetStats Stats() const;

  // Validates every graph and checks label ranges & feature-dim agreement.
  [[nodiscard]] Status Validate() const;

 private:
  std::string name_;
  int num_classes_ = 0;
  int num_tasks_ = 1;
  std::vector<Graph> graphs_;
};

}  // namespace sgcl

#endif  // SGCL_GRAPH_DATASET_H_
