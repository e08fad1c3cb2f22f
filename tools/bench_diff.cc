// CI perf-regression gate over benchmark result files: google-benchmark
// JSON and the BENCH_*.json files tools/bench_record.py writes.
//
//   bench_diff <baseline.json> <current.json> [--threshold-pct=10]
//              [--report-only] [--fail-on-missing]
//
// Loads both files, matches benchmark families by name (the median
// aggregate when repetitions were used), prints a per-benchmark delta
// table with each value's unit, and exits nonzero when any matched
// benchmark is at least --threshold-pct worse than its baseline: higher
// for a lower-is-better entry (times, the default), lower for a
// higher-is-better one (throughputs). --report-only prints the same table
// but always exits 0 (for informational CI steps on noisy runners);
// --fail-on-missing additionally fails when a baseline benchmark has no
// counterpart in the current file (renamed or deleted benchmarks would
// otherwise dodge the gate). A "warning:" line names each machine-context
// key (nproc, isa, build_type, compiler) on which the two files differ;
// warnings never change the exit code.
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_compare.h"
#include "common/flags.h"

namespace sgcl {
namespace {

int Run(int argc, char** argv) {
  double threshold_pct = 10.0;
  bool report_only = false;
  bool fail_on_missing = false;
  FlagSet flags("bench_diff <baseline.json> <current.json>");
  flags.Double("threshold-pct", &threshold_pct,
               "fail when a benchmark is at least this % worse");
  flags.Bool("report-only", &report_only,
             "print the delta table but always exit 0");
  flags.Bool("fail-on-missing", &fail_on_missing,
             "also fail when a baseline benchmark is missing from current");

  // The two file operands are positional; everything else goes through
  // the strict flag parser.
  std::vector<std::string> files;
  std::vector<char*> flag_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      flag_argv.push_back(argv[i]);
    } else {
      files.push_back(arg);
    }
  }
  const Status st =
      flags.Parse(static_cast<int>(flag_argv.size()), flag_argv.data(), 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "error: expected exactly 2 file operands "
                 "(baseline.json current.json), got %zu\n%s",
                 files.size(), flags.Help().c_str());
    return 2;
  }

  JsonValue base_context, current_context;
  auto base = LoadBenchmarkJson(files[0], &base_context);
  if (!base.ok()) {
    std::fprintf(stderr, "error: %s\n", base.status().ToString().c_str());
    return 2;
  }
  auto current = LoadBenchmarkJson(files[1], &current_context);
  if (!current.ok()) {
    std::fprintf(stderr, "error: %s\n", current.status().ToString().c_str());
    return 2;
  }
  for (const std::string& mismatch :
       ContextMismatches(base_context, current_context)) {
    std::fprintf(stderr, "warning: %s\n", mismatch.c_str());
  }

  const BenchComparison comparison = CompareBenchmarks(*base, *current);
  std::printf("%s", FormatComparison(comparison, threshold_pct).c_str());
  if (comparison.matched.empty()) {
    std::fprintf(stderr, "error: no benchmarks in common between %s and %s\n",
                 files[0].c_str(), files[1].c_str());
    return 2;
  }

  const int regressions = CountRegressions(comparison, threshold_pct);
  std::printf("\n%zu matched, %d regression(s) past %+.1f%%, "
              "%zu baseline-only, %zu current-only\n",
              comparison.matched.size(), regressions, threshold_pct,
              comparison.only_base.size(), comparison.only_current.size());
  if (report_only) return 0;
  if (regressions > 0) return 1;
  if (fail_on_missing && !comparison.only_base.empty()) return 1;
  return 0;
}

}  // namespace
}  // namespace sgcl

int main(int argc, char** argv) { return sgcl::Run(argc, argv); }
