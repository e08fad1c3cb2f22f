// shard_writer: materializes a graph stream into a sharded on-disk store
// (data/shard_store.h) without ever holding the full set in memory.
//
//   shard_writer --out-dir=zinc_store --graphs=100000 [--seed=0]
//                [--shard-graphs=4096] [--name=ZINC-like]
//
// It streams the synthetic ZINC-2M molecule sampler: graph i of a given
// seed is bitwise identical to MakeZincLikeDataset(n, seed).graph(i), so
// small in-memory datasets and huge stores are directly comparable in
// tests and benches.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "data/shard_store.h"
#include "data/synthetic_molecule.h"

namespace sgcl {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Run(int argc, char** argv) {
  std::string out_dir;
  std::string name = "ZINC-like";
  int64_t graphs = 10000;
  int64_t shard_graphs = 4096;
  uint64_t seed = 0;
  FlagSet flags("shard_writer");
  flags.String("out-dir", &out_dir, "store directory to create (required)");
  flags.String("name", &name, "dataset name recorded in the manifest");
  flags.Int64("graphs", &graphs, "number of molecules to sample");
  flags.Int64("shard-graphs", &shard_graphs, "graphs per shard file");
  flags.Uint64("seed", &seed, "molecule sampler seed");
  const Status st = flags.Parse(argc, argv, 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "error: --out-dir is required\n%s",
                 flags.Help().c_str());
    return 2;
  }
  if (shard_graphs < 1 || graphs < 1) {
    std::fprintf(stderr, "error: --graphs and --shard-graphs must be >= 1\n");
    return 2;
  }

  Stopwatch watch;
  ShardWriterOptions options;
  options.graphs_per_shard = shard_graphs;
  options.name = name;

  auto writer = ShardedGraphStoreWriter::Create(out_dir, options);
  if (!writer.ok()) return Fail(writer.status());
  // Identical stream to MakeZincLikeDataset(graphs, seed), one graph
  // resident at a time.
  Rng rng(seed ^ 0x5a5a5a5aULL);
  MoleculeSampler sampler;
  for (int64_t i = 0; i < graphs; ++i) {
    const Graph g = std::move(sampler.Sample(&rng).graph);
    const Status append = (*writer)->Append(g);
    if (!append.ok()) return Fail(append);
  }
  const Status fin = (*writer)->Finalize();
  if (!fin.ok()) return Fail(fin);
  std::printf("wrote %lld sampled graphs (seed %llu) into %s "
              "(%lld shards, %.2fs)\n",
              static_cast<long long>((*writer)->graphs_appended()),
              static_cast<unsigned long long>(seed), out_dir.c_str(),
              static_cast<long long>((*writer)->shards_written()),
              watch.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
