#include "common/bench_compare.h"

#include <fstream>
#include <map>

#include "common/metrics.h"
#include "common/string_util.h"

namespace sgcl {
namespace {

// google-benchmark time_unit values.
double UnitToNs(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

// A context value as text, for comparing and printing.
std::string ContextText(const JsonValue& context, const char* key) {
  const JsonValue* v = context.Find(key);
  if (v == nullptr) return "(none)";
  if (v->is_string()) return v->AsString();
  if (v->is_number()) return StrFormat("%g", v->AsDouble());
  return "(not a scalar)";
}

}  // namespace

Result<std::vector<BenchEntry>> LoadBenchmarkJson(const std::string& path,
                                                  JsonValue* context) {
  SGCL_ASSIGN_OR_RETURN(const JsonValue root, ParseJsonFile(path));
  const JsonValue* benchmarks = root.Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument(
        path + ": not a google-benchmark JSON file (no \"benchmarks\" array)");
  }
  if (context != nullptr) {
    const JsonValue* found = root.Find("context");
    *context = found != nullptr ? *found : JsonValue();
  }
  // First pass: which families have aggregate entries at all.
  std::map<std::string, bool> family_has_aggregates;
  for (const JsonValue& b : benchmarks->AsArray()) {
    if (!b.is_object()) continue;
    const std::string run_name = b.GetString("run_name", b.GetString("name"));
    if (!b.GetString("aggregate_name").empty()) {
      family_has_aggregates[run_name] = true;
    }
  }
  std::vector<BenchEntry> entries;
  for (const JsonValue& b : benchmarks->AsArray()) {
    if (!b.is_object()) continue;
    const std::string aggregate = b.GetString("aggregate_name");
    const std::string run_name = b.GetString("run_name", b.GetString("name"));
    if (family_has_aggregates.count(run_name) > 0) {
      if (aggregate != "median") continue;
    } else if (b.GetString("run_type", "iteration") != "iteration") {
      continue;
    }
    BenchEntry entry;
    entry.name = b.GetString("name");
    entry.run_name = run_name;
    if (entry.name.empty()) continue;
    if (b.Find("unit") != nullptr) {
      entry.value = b.GetDouble("real_time");
      entry.unit = b.GetString("unit");
    } else {
      entry.real_ns =
          b.GetDouble("real_time") * UnitToNs(b.GetString("time_unit", "ns"));
      entry.value = entry.real_ns * 1e-6;
      entry.unit = "ms";
    }
    const std::string better = b.GetString("better", "lower");
    if (better == "higher") {
      entry.better = BenchBetter::kHigher;
    } else if (better != "lower") {
      return Status::InvalidArgument(path + ": " + entry.name +
                                     ": \"better\" must be lower or higher, "
                                     "not \"" + better + "\"");
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    return Status::InvalidArgument(path +
                                   ": no comparable benchmark entries");
  }
  return entries;
}

Status WriteBenchJson(const std::string& path, const std::string& context_json,
                      const std::vector<BenchEntry>& entries) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot write " + path);
  out << "{\"context\":" << context_json << ",\"benchmarks\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << JsonEscape(e.name)
        << "\",\"run_name\":\"" << JsonEscape(e.name)
        << "\",\"run_type\":\"iteration\",\"iterations\":1,\"real_time\":"
        << JsonDouble(e.value) << ",\"unit\":\"" << JsonEscape(e.unit)
        << "\",\"better\":\""
        << (e.better == BenchBetter::kHigher ? "higher" : "lower") << "\"}";
  }
  out << "]}\n";
  out.flush();
  if (!out) return Status::Internal("write failed for " + path);
  return Status::OK();
}

std::vector<std::string> ContextMismatches(const JsonValue& base,
                                           const JsonValue& current) {
  std::vector<std::string> lines;
  for (const char* key : {"nproc", "isa", "build_type", "compiler"}) {
    if (base.Find(key) == nullptr && current.Find(key) == nullptr) continue;
    const std::string b = ContextText(base, key);
    const std::string c = ContextText(current, key);
    if (b != c) {
      lines.push_back(StrFormat("context %s differs: %s vs %s", key,
                                b.c_str(), c.c_str()));
    }
  }
  return lines;
}

BenchComparison CompareBenchmarks(const std::vector<BenchEntry>& base,
                                  const std::vector<BenchEntry>& current) {
  std::map<std::string, const BenchEntry*> base_by_name;
  for (const BenchEntry& e : base) base_by_name[e.run_name] = &e;
  std::map<std::string, const BenchEntry*> current_by_name;
  for (const BenchEntry& e : current) current_by_name[e.run_name] = &e;

  BenchComparison comparison;
  for (const auto& [name, b] : base_by_name) {
    const auto it = current_by_name.find(name);
    if (it == current_by_name.end()) {
      comparison.only_base.push_back(name);
      continue;
    }
    BenchDelta delta;
    delta.name = name;
    delta.base = b->value;
    delta.current = it->second->value;
    delta.unit = b->unit;
    const double worse = b->better == BenchBetter::kHigher
                             ? b->value - delta.current
                             : delta.current - b->value;
    delta.pct = b->value > 0.0 ? 100.0 * worse / b->value : 0.0;
    comparison.matched.push_back(std::move(delta));
  }
  for (const auto& [name, c] : current_by_name) {
    if (base_by_name.count(name) == 0) comparison.only_current.push_back(name);
  }
  return comparison;
}

std::string FormatComparison(const BenchComparison& comparison,
                             double threshold_pct) {
  // Widths sized for typical "BM_Name/256" benchmarks; long names just
  // push their row wider.
  std::string out = StrFormat("%-44s %14s %14s %-9s %9s\n", "benchmark",
                              "baseline", "current", "unit", "worse by");
  for (const BenchDelta& d : comparison.matched) {
    const bool flagged = d.pct >= threshold_pct;
    out += StrFormat("%-44s %14.4f %14.4f %-9s %+8.2f%%%s\n", d.name.c_str(),
                     d.base, d.current, d.unit.c_str(), d.pct,
                     flagged ? "  REGRESSION" : "");
  }
  for (const std::string& name : comparison.only_base) {
    out += StrFormat("%-44s only in baseline (skipped)\n", name.c_str());
  }
  for (const std::string& name : comparison.only_current) {
    out += StrFormat("%-44s only in current (skipped)\n", name.c_str());
  }
  return out;
}

int CountRegressions(const BenchComparison& comparison,
                     double threshold_pct) {
  int regressions = 0;
  for (const BenchDelta& d : comparison.matched) {
    if (d.pct >= threshold_pct) ++regressions;
  }
  return regressions;
}

}  // namespace sgcl
