#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "baselines/registry.h"
#include "common/flags.h"
#include "common/string_util.h"

namespace sgcl::bench {

BenchScale ParseArgs(int argc, char** argv,
                     const std::vector<std::string>& rows,
                     std::string* only_filter) {
  BenchScale scale;
  std::string mode = "ci";
  int seeds = scale.seeds;
  only_filter->clear();
  FlagSet flags(argv[0]);
  flags.String("mode", &mode,
               "ci (scaled-down sizes that finish on a single core) or "
               "paper (the paper's full protocol sizes)");
  flags.Int("seeds", &seeds, "seed count (paper mode's default is 5)");
  flags.String("only", only_filter,
               "run only the rows (methods, kernels, variants, sweeps, "
               "architectures) whose name contains this");
  Status st = flags.Parse(argc, argv, 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    std::exit(0);
  }
  if (st.ok() && mode != "ci" && mode != "paper") {
    st = Status::InvalidArgument("--mode must be ci or paper, got " + mode);
  }
  if (st.ok() && flags.IsSet("seeds") && seeds < 1) {
    st = Status::InvalidArgument(
        StrFormat("--seeds must be >= 1, got %d", seeds));
  }
  if (st.ok() && !only_filter->empty() &&
      std::none_of(rows.begin(), rows.end(), [&](const std::string& row) {
        return Selected(row, *only_filter);
      })) {
    std::string names;
    for (const std::string& row : rows) {
      names += (names.empty() ? "" : ", ") + row;
    }
    st = Status::InvalidArgument("--only=" + *only_filter +
                                 " selects no row; the rows are: " +
                                 (names.empty() ? "(none)" : names));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    std::exit(2);
  }
  if (mode == "paper") {
    scale.paper = true;
    scale.tu_target_graphs = 1 << 30;
    scale.tu_node_cap = 1e9;
    scale.zinc_graphs = 20000;
    scale.mol_graph_fraction = 1.0;
    scale.mol_max_graphs = 100000;
    scale.hidden_dim = 32;
    scale.num_layers = 3;
    scale.pretrain_epochs = 40;
    scale.finetune_epochs = 30;
    scale.batch_size = 128;
    scale.seeds = 5;
    scale.cv_folds = 10;
  }
  if (flags.IsSet("seeds")) scale.seeds = seeds;
  return scale;
}

bool Selected(const std::string& name, const std::string& only_filter) {
  return only_filter.empty() || name.find(only_filter) != std::string::npos;
}

GraphDataset MakeTu(TuDataset which, const BenchScale& scale, uint64_t seed) {
  SyntheticTuOptions opt;
  const int paper_graphs = GetTuConfig(which).num_graphs;
  opt.graph_fraction = std::min(
      1.0, static_cast<double>(scale.tu_target_graphs) / paper_graphs);
  opt.node_cap = scale.tu_node_cap;
  opt.seed = seed;
  return MakeTuDataset(which, opt);
}

GraphDataset MakeMol(MolTask task, const BenchScale& scale, uint64_t seed) {
  MolDatasetOptions opt;
  opt.graph_fraction = scale.mol_graph_fraction;
  opt.max_graphs = scale.mol_max_graphs;
  opt.seed = seed;
  return MakeMolTaskDataset(task, opt);
}

SgclConfig ScaledSgclConfig(int64_t feat_dim, const BenchScale& scale) {
  SgclConfig cfg = MakeUnsupervisedConfig(feat_dim);
  cfg.encoder.hidden_dim = scale.hidden_dim;
  cfg.encoder.num_layers = scale.num_layers;
  cfg.proj_dim = scale.hidden_dim;
  cfg.epochs = scale.pretrain_epochs;
  cfg.batch_size = scale.batch_size;
  return cfg;
}

BaselineConfig ScaledBaselineConfig(int64_t feat_dim, const BenchScale& scale,
                                    uint64_t seed) {
  BaselineConfig cfg;
  cfg.encoder.arch = GnnArch::kGin;
  cfg.encoder.in_dim = feat_dim;
  cfg.encoder.hidden_dim = scale.hidden_dim;
  cfg.encoder.num_layers = scale.num_layers;
  cfg.epochs = scale.pretrain_epochs;
  cfg.batch_size = scale.batch_size;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::string> UnsupervisedMethodNames() {
  return {"InfoGraph", "GraphCL", "JOAOv2", "AD-GCL",
          "SimGRACE",  "RGCL",    "AutoGCL", "SGCL"};
}

std::vector<std::string> TransferMethodNames() {
  return {"No Pre-Train", "AttrMasking", "ContextPred", "GraphCL", "JOAOv2",
          "AD-GCL",       "RGCL",        "AutoGCL",     "SGCL"};
}

std::unique_ptr<Pretrainer> MakeMethod(const std::string& name,
                                       int64_t feat_dim,
                                       const BenchScale& scale,
                                       uint64_t seed) {
  auto method = MakePretrainer(name, ScaledBaselineConfig(feat_dim, scale,
                                                          seed),
                               ScaledSgclConfig(feat_dim, scale), seed);
  SGCL_CHECK(method.ok());
  return std::move(*method);
}

}  // namespace sgcl::bench
