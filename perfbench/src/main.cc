// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload=exact-pipeline|stream-dp2|serve-open --seed=N
//             --seconds=S --trace=0|1 --scratch-dir=DIR
//             [--size=full|tiny] [--trace-out=FILE (with --trace=1)]
//
// Runs one workload against the sgcl library's public API, checks its
// outputs, and prints a context line, a human-readable summary and, as the
// last line, one JSON object {"correct","attempted","failed","metrics"}.
// --trace=0 reports the end-to-end metrics; --trace=1 replays the workload
// with spans around the public calls and reports the per-layer metrics.
// perfbench/run.py builds this program and is the intended entry point.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

bool TakeFlag(const std::string& arg, const std::string& name,
              std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=exact-pipeline|"
               "stream-dp2|serve-open --seed=N --seconds=S --trace=0|1 "
               "--scratch-dir=DIR [--size=full|tiny] [--trace-out=FILE]\n"
               "(--trace-out is required with --trace=1)\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (TakeFlag(arg, "workload", &v)) {
      options.workload = v;
    } else if (TakeFlag(arg, "seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (TakeFlag(arg, "seconds", &v)) {
      options.seconds = std::atof(v.c_str());
    } else if (TakeFlag(arg, "trace", &v)) {
      if (v != "0" && v != "1") return Usage("--trace must be 0 or 1");
      options.trace = v == "1";
    } else if (TakeFlag(arg, "size", &v)) {
      if (v != "full" && v != "tiny") return Usage("--size must be full|tiny");
      options.tiny = v == "tiny";
    } else if (TakeFlag(arg, "scratch-dir", &v)) {
      options.scratch_dir = v;
    } else if (TakeFlag(arg, "trace-out", &v)) {
      options.trace_out = v;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");
  if (options.scratch_dir.empty()) return Usage("--scratch-dir is required");
  if (options.trace != !options.trace_out.empty()) {
    return Usage("--trace-out is required with --trace=1, and only then");
  }
  std::error_code ec;
  std::filesystem::remove_all(options.scratch_dir, ec);
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) return Usage("cannot create " + options.scratch_dir);

  std::printf("context %s\n", perfbench::ContextJson(options).c_str());
  std::fflush(stdout);
  const perfbench::CpuTicks ticks_before = perfbench::ReadCpuTicks();
  perfbench::Outcome outcome;
  if (options.workload == "exact-pipeline") {
    perfbench::RunExactPipeline(options, &outcome);
  } else if (options.workload == "stream-dp2") {
    perfbench::RunStreamDp2(options, &outcome);
  } else if (options.workload == "serve-open") {
    perfbench::RunServeOpen(options, &outcome);
  } else {
    std::filesystem::remove_all(options.scratch_dir, ec);
    return Usage("unknown workload '" + options.workload + "'");
  }
  if (options.trace) {
    // Self time per span name: where the traced run's wall time went.
    for (const auto& [name, s] : perfbench::Tracer::Get().Summarize()) {
      outcome.Display("span " + name, 1e3 * s.self_s, "ms self",
                      std::to_string(s.count) + " spans, " +
                          std::to_string(1e3 * s.total_s) + " ms total");
    }
    outcome.Op(perfbench::Tracer::Get().WriteChromeTrace(options.trace_out),
               "write " + options.trace_out);
  }
  std::filesystem::remove_all(options.scratch_dir, ec);
  // Validity, not program speed: CPU time the hypervisor gave to other
  // guests while this run measured.
  outcome.Display("host steal",
                  100.0 * perfbench::StealShare(ticks_before,
                                                perfbench::ReadCpuTicks()),
                  "%", "of all CPU time during the run");
  outcome.Finish(options.trace);
  outcome.Print(options.workload);
  return 0;
}
