#include "graph/dataset.h"

#include <utility>

#include "common/string_util.h"

namespace sgcl {

Result<int64_t> GraphDataset::FeatDim() const {
  if (graphs_.empty()) {
    return Status::FailedPrecondition(StrFormat(
        "dataset %s is empty: feature dimension is undefined", name_.c_str()));
  }
  return graphs_[0].feat_dim();
}

void GraphDataset::Add(Graph g) {
  SGCL_CHECK(graphs_.empty() || g.feat_dim() == graphs_[0].feat_dim());
  graphs_.push_back(std::move(g));
}

Status GraphDataset::TryAdd(Graph g) {
  if (!graphs_.empty() && g.feat_dim() != graphs_[0].feat_dim()) {
    return Status::InvalidArgument(
        StrFormat("graph has feat_dim %lld, dataset %s holds feat_dim %lld",
                  static_cast<long long>(g.feat_dim()), name_.c_str(),
                  static_cast<long long>(graphs_[0].feat_dim())));
  }
  graphs_.push_back(std::move(g));
  return Status::OK();
}

Result<std::vector<int>> GraphDataset::Labels() const {
  if (graphs_.empty()) {
    return Status::FailedPrecondition(
        StrFormat("dataset %s is empty: no labels", name_.c_str()));
  }
  std::vector<int> labels;
  labels.reserve(graphs_.size());
  for (const Graph& g : graphs_) labels.push_back(g.label());
  return labels;
}

DatasetStats GraphDataset::Stats() const {
  DatasetStats s;
  s.num_graphs = size();
  s.num_classes = num_classes_;
  if (graphs_.empty()) return s;
  double nodes = 0.0, edges = 0.0;
  for (const Graph& g : graphs_) {
    nodes += static_cast<double>(g.num_nodes());
    edges += static_cast<double>(g.num_undirected_edges());
  }
  s.avg_nodes = nodes / static_cast<double>(size());
  s.avg_edges = edges / static_cast<double>(size());
  return s;
}

Status GraphDataset::Validate() const {
  if (graphs_.empty()) return Status::OK();
  const int64_t d = graphs_[0].feat_dim();
  for (int64_t i = 0; i < size(); ++i) {
    const Graph& g = graphs_[i];
    SGCL_RETURN_NOT_OK(g.Validate());
    if (g.feat_dim() != d) {
      return Status::InvalidArgument(
          StrFormat("graph %lld has feat_dim %lld, want %lld",
                    static_cast<long long>(i),
                    static_cast<long long>(g.feat_dim()),
                    static_cast<long long>(d)));
    }
    if (num_tasks_ <= 1) {
      if (g.label() < 0 || g.label() >= num_classes_) {
        return Status::OutOfRange(
            StrFormat("graph %lld has label %d outside [0, %d)",
                      static_cast<long long>(i), g.label(), num_classes_));
      }
    } else if (static_cast<int>(g.task_labels().size()) != num_tasks_) {
      return Status::InvalidArgument(
          StrFormat("graph %lld has %zu task labels, want %d",
                    static_cast<long long>(i), g.task_labels().size(),
                    num_tasks_));
    }
  }
  return Status::OK();
}

}  // namespace sgcl
