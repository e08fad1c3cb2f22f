// Reading, writing and diffing benchmark result files — the library half
// of tools/bench_diff, the CI perf-regression gate.
//
// File format: google-benchmark's JSON ({"context": {...}, "benchmarks":
// [...]}), where an entry may also carry a "unit" and a "better"
// direction. An entry with a "unit" holds its value in "real_time", in
// that unit. An entry without one is a google-benchmark time: it
// normalizes to milliseconds using the entry's time_unit. "better" is
// "lower" (the default, so google-benchmark files compare as times) or
// "higher" (throughputs, speedups).
//
// Matching model: benchmarks pair by exact "name". Files written with
// --benchmark_repetitions carry both per-repetition entries and
// aggregates; to compare one stable number per benchmark family, loading
// keeps the "median" aggregate when a family has aggregates and the
// plain iteration entry otherwise (mean/stddev/cv aggregates are
// skipped).
#ifndef SGCL_COMMON_BENCH_COMPARE_H_
#define SGCL_COMMON_BENCH_COMPARE_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace sgcl {

// Which way an entry improves.
enum class BenchBetter { kLower, kHigher };

struct BenchEntry {
  std::string name;      // full benchmark name, e.g. "BM_X/16_median"
  std::string run_name;  // family name without the aggregate suffix
  double value = 0.0;    // the compared number, in `unit`
  std::string unit;      // the entry's "unit"; "ms" for google-benchmark times
  BenchBetter better = BenchBetter::kLower;
  double real_ns = 0.0;  // google-benchmark times: real time in ns
};

// Parses a bench file into comparable entries (see matching model above)
// and, when `context` is non-null, stores the file's "context" object
// there. InvalidArgument when the file is not a benchmark result file or
// an entry's "better" is neither "lower" nor "higher".
Result<std::vector<BenchEntry>> LoadBenchmarkJson(const std::string& path,
                                                  JsonValue* context = nullptr);

// Writes `entries` (name, value, unit, better) as a file LoadBenchmarkJson
// reads back. `context_json` must be a JSON object; it becomes the file's
// "context" verbatim.
Status WriteBenchJson(const std::string& path, const std::string& context_json,
                      const std::vector<BenchEntry>& entries);

// One "context <key> differs: <base> vs <current>" line for each machine
// key (nproc, isa, build_type, compiler) whose value differs between two
// files' contexts. A key that neither file records is not a difference.
std::vector<std::string> ContextMismatches(const JsonValue& base,
                                           const JsonValue& current);

struct BenchDelta {
  std::string name;  // run_name shared by both sides
  double base = 0.0;
  double current = 0.0;
  std::string unit;
  // Signed percent change, oriented so that positive = worse: a rise of a
  // lower-is-better value, a fall of a higher-is-better one.
  double pct = 0.0;
};

struct BenchComparison {
  std::vector<BenchDelta> matched;        // sorted by name
  std::vector<std::string> only_base;     // names missing from current
  std::vector<std::string> only_current;  // names missing from baseline
};

// Pairs entries by run_name and computes per-benchmark deltas, in the
// baseline entry's direction.
BenchComparison CompareBenchmarks(const std::vector<BenchEntry>& base,
                                  const std::vector<BenchEntry>& current);

// Human-readable delta table plus unmatched-name notes, one line per
// benchmark; rows at or past `threshold_pct` worse are flagged.
std::string FormatComparison(const BenchComparison& comparison,
                             double threshold_pct);

// Count of matched benchmarks that are >= threshold_pct worse.
int CountRegressions(const BenchComparison& comparison, double threshold_pct);

}  // namespace sgcl

#endif  // SGCL_COMMON_BENCH_COMPARE_H_
