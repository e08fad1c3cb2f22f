#include "common/bench_compare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/json.h"

namespace sgcl {
namespace {

// Writes a minimal google-benchmark JSON file with the given entries.
// Each entry line must already be a JSON object.
std::string WriteBenchFile(const std::string& path,
                           const std::vector<std::string>& entries) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"context\":{\"num_cpus\":1},\"benchmarks\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out << ',';
    out << entries[i];
  }
  out << "]}";
  return path;
}

std::string Iteration(const std::string& name, double real_ms) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"run_name\":\"%s\","
                "\"run_type\":\"iteration\",\"real_time\":%g,"
                "\"cpu_time\":%g,\"time_unit\":\"ms\"}",
                name.c_str(), name.c_str(), real_ms, real_ms);
  return buf;
}

std::string Aggregate(const std::string& run_name, const std::string& kind,
                      double real_ms) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s_%s\",\"run_name\":\"%s\","
                "\"run_type\":\"aggregate\",\"aggregate_name\":\"%s\","
                "\"real_time\":%g,\"cpu_time\":%g,\"time_unit\":\"ms\"}",
                run_name.c_str(), kind.c_str(), run_name.c_str(),
                kind.c_str(), real_ms, real_ms);
  return buf;
}

class BenchCompareTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }
  std::string Tmp(const std::string& name) {
    cleanup_.push_back(name);
    return name;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(BenchCompareTest, LoadPrefersMedianAggregate) {
  const std::string path = WriteBenchFile(
      Tmp("bench_agg.json"),
      {Aggregate("BM_X/16", "mean", 1.1), Aggregate("BM_X/16", "median", 1.0),
       Aggregate("BM_X/16", "stddev", 0.1), Iteration("BM_Y/8", 2.0)});
  auto entries = LoadBenchmarkJson(path);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 2u);
  // ms normalized to ns.
  EXPECT_EQ((*entries)[0].run_name, "BM_X/16");
  EXPECT_DOUBLE_EQ((*entries)[0].real_ns, 1.0e6);
  EXPECT_EQ((*entries)[1].run_name, "BM_Y/8");
  EXPECT_DOUBLE_EQ((*entries)[1].real_ns, 2.0e6);
}

TEST_F(BenchCompareTest, LoadRejectsNonBenchmarkJson) {
  const std::string path = Tmp("bench_bad.json");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"not_benchmarks\": []}";
  }
  EXPECT_EQ(LoadBenchmarkJson(path).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBenchmarkJson("missing_bench.json").status().code(),
            StatusCode::kNotFound);
}

// Malformed and empty inputs must surface as InvalidArgument with a
// message naming the file — never a crash or a silent empty diff.
TEST_F(BenchCompareTest, LoadRejectsEmptyAndMalformedFiles) {
  const std::string empty = Tmp("bench_empty.json");
  { std::ofstream out(empty, std::ios::trunc); }
  const auto empty_result = LoadBenchmarkJson(empty);
  ASSERT_FALSE(empty_result.ok());
  EXPECT_EQ(empty_result.status().code(), StatusCode::kInvalidArgument);

  const std::string garbage = Tmp("bench_garbage.json");
  {
    std::ofstream out(garbage, std::ios::trunc);
    out << "this is not json {]";
  }
  const auto garbage_result = LoadBenchmarkJson(garbage);
  ASSERT_FALSE(garbage_result.ok());
  EXPECT_EQ(garbage_result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BenchCompareTest, LoadRejectsEmptyBenchmarksArray) {
  const std::string path = WriteBenchFile(Tmp("bench_noentries.json"), {});
  const auto result = LoadBenchmarkJson(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("no comparable benchmark entries"),
            std::string::npos);
  EXPECT_NE(result.status().message().find(path), std::string::npos);
}

TEST_F(BenchCompareTest, IdenticalInputsShowNoRegression) {
  const std::string path = WriteBenchFile(
      Tmp("bench_same.json"),
      {Iteration("BM_A", 1.0), Iteration("BM_B", 5.0)});
  auto entries = LoadBenchmarkJson(path);
  ASSERT_TRUE(entries.ok());
  const BenchComparison cmp = CompareBenchmarks(*entries, *entries);
  ASSERT_EQ(cmp.matched.size(), 2u);
  EXPECT_DOUBLE_EQ(cmp.matched[0].pct, 0.0);
  EXPECT_DOUBLE_EQ(cmp.matched[1].pct, 0.0);
  EXPECT_TRUE(cmp.only_base.empty());
  EXPECT_TRUE(cmp.only_current.empty());
  EXPECT_EQ(CountRegressions(cmp, 10.0), 0);
  // A zero threshold flags the 0% delta (>= semantics) — the gate's
  // documented threshold is strictly positive.
  EXPECT_EQ(CountRegressions(cmp, 0.5), 0);
}

TEST_F(BenchCompareTest, InjectedRegressionIsFlagged) {
  const std::string base_path = WriteBenchFile(
      Tmp("bench_base.json"),
      {Iteration("BM_A", 1.0), Iteration("BM_B", 5.0)});
  const std::string cur_path = WriteBenchFile(
      Tmp("bench_cur.json"),
      {Iteration("BM_A", 1.3), Iteration("BM_B", 4.0)});
  auto base = LoadBenchmarkJson(base_path);
  auto current = LoadBenchmarkJson(cur_path);
  ASSERT_TRUE(base.ok() && current.ok());
  const BenchComparison cmp = CompareBenchmarks(*base, *current);
  ASSERT_EQ(cmp.matched.size(), 2u);
  EXPECT_NEAR(cmp.matched[0].pct, 30.0, 1e-9);   // BM_A 30% slower
  EXPECT_NEAR(cmp.matched[1].pct, -20.0, 1e-9);  // BM_B 20% faster
  EXPECT_EQ(CountRegressions(cmp, 10.0), 1);
  EXPECT_EQ(CountRegressions(cmp, 50.0), 0);
  const std::string report = FormatComparison(cmp, 10.0);
  EXPECT_NE(report.find("REGRESSION"), std::string::npos);
}

TEST_F(BenchCompareTest, UnmatchedNamesAreReportedNotCompared) {
  const std::string base_path =
      WriteBenchFile(Tmp("bench_b2.json"),
                     {Iteration("BM_A", 1.0), Iteration("BM_Old", 2.0)});
  const std::string cur_path =
      WriteBenchFile(Tmp("bench_c2.json"),
                     {Iteration("BM_A", 1.0), Iteration("BM_New", 2.0)});
  auto base = LoadBenchmarkJson(base_path);
  auto current = LoadBenchmarkJson(cur_path);
  ASSERT_TRUE(base.ok() && current.ok());
  const BenchComparison cmp = CompareBenchmarks(*base, *current);
  ASSERT_EQ(cmp.matched.size(), 1u);
  ASSERT_EQ(cmp.only_base.size(), 1u);
  EXPECT_EQ(cmp.only_base[0], "BM_Old");
  ASSERT_EQ(cmp.only_current.size(), 1u);
  EXPECT_EQ(cmp.only_current[0], "BM_New");
}

TEST_F(BenchCompareTest, LoadRejectsUnknownDirection) {
  const std::string path = WriteBenchFile(
      Tmp("bench_sideways.json"),
      {"{\"name\":\"x\",\"real_time\":1,\"unit\":\"s\","
       "\"better\":\"sideways\"}"});
  const auto result = LoadBenchmarkJson(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

BenchEntry Metric(const std::string& name, double value,
                  const std::string& unit, BenchBetter better) {
  BenchEntry e;
  e.name = name;
  e.run_name = name;
  e.value = value;
  e.unit = unit;
  e.better = better;
  return e;
}

TEST_F(BenchCompareTest, WriteThenLoadKeepsNameValueUnitAndDirection) {
  const std::vector<BenchEntry> written = {
      Metric("world2/graphs_per_s", 1234.5678901234567, "graphs/s",
             BenchBetter::kHigher),
      Metric("world2/pretrain", 0.25, "s", BenchBetter::kLower)};
  const std::string path = Tmp("bench_roundtrip.json");
  ASSERT_TRUE(WriteBenchJson(path, "{\"nproc\":4}", written).ok());
  JsonValue context;
  auto loaded = LoadBenchmarkJson(path, &context);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    SCOPED_TRACE(written[i].name);
    EXPECT_EQ((*loaded)[i].name, written[i].name);
    EXPECT_EQ((*loaded)[i].run_name, written[i].name);
    EXPECT_EQ((*loaded)[i].value, written[i].value);  // %.17g round-trips
    EXPECT_EQ((*loaded)[i].unit, written[i].unit);
    EXPECT_EQ((*loaded)[i].better, written[i].better);
  }
  EXPECT_EQ(context.GetDouble("nproc"), 4.0);
}

// The delta is signed so that positive means worse, whichever way the
// entry improves; only "worse" deltas count as regressions.
TEST_F(BenchCompareTest, DeltaSignMeansWorseInEitherDirection) {
  struct Case {
    const char* name;
    BenchBetter better;
    double base, current, pct;
  };
  const Case cases[] = {
      {"time_rise", BenchBetter::kLower, 10.0, 13.0, 30.0},
      {"time_tie", BenchBetter::kLower, 10.0, 10.0, 0.0},
      {"throughput_rise", BenchBetter::kHigher, 100.0, 150.0, -50.0},
      {"throughput_drop", BenchBetter::kHigher, 100.0, 50.0, 50.0},
      {"throughput_tie", BenchBetter::kHigher, 100.0, 100.0, 0.0},
  };
  std::vector<BenchEntry> base, current;
  for (const Case& c : cases) {
    base.push_back(Metric(c.name, c.base, "u", c.better));
    current.push_back(Metric(c.name, c.current, "u", c.better));
  }
  const BenchComparison cmp = CompareBenchmarks(base, current);
  ASSERT_EQ(cmp.matched.size(), std::size(cases));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto it = std::find_if(
        cmp.matched.begin(), cmp.matched.end(),
        [&](const BenchDelta& d) { return d.name == c.name; });
    ASSERT_NE(it, cmp.matched.end());
    EXPECT_NEAR(it->pct, c.pct, 1e-9);
  }
  EXPECT_EQ(CountRegressions(cmp, 10.0), 2);  // time_rise, throughput_drop
  const std::string report = FormatComparison(cmp, 10.0);
  EXPECT_EQ(report.find("-0.00%"), std::string::npos);
}

TEST_F(BenchCompareTest, ContextMismatchWarnsPerMachineKey) {
  JsonValue host_a, host_b;
  auto a = LoadBenchmarkJson(
      std::string(SGCL_TESTDATA_DIR) + "/bench_context_host_a.json", &host_a);
  auto b = LoadBenchmarkJson(
      std::string(SGCL_TESTDATA_DIR) + "/bench_context_host_b.json", &host_b);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<std::string> warnings = ContextMismatches(host_a, host_b);
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_EQ(warnings[0], "context nproc differs: 4 vs 64");
  EXPECT_EQ(warnings[1], "context isa differs: x86-64-v4 vs x86-64-v3");
  EXPECT_TRUE(ContextMismatches(host_a, host_a).empty());
  // Same entries on both hosts: the warnings do not make a regression.
  EXPECT_EQ(CountRegressions(CompareBenchmarks(*a, *b), 10.0), 0);

  // google-benchmark contexts record none of the keys: nothing to warn
  // about. A key that only one side records is a difference.
  auto gbench = JsonValue::Parse("{\"num_cpus\":1}");
  ASSERT_TRUE(gbench.ok());
  EXPECT_TRUE(ContextMismatches(*gbench, *gbench).empty());
  EXPECT_EQ(ContextMismatches(*gbench, host_a).size(), 4u);
}

std::string RepoFile(const std::string& name) {
  return std::string(SGCL_TESTDATA_DIR) + "/../../" + name;
}

// Every committed baseline must stay loadable — they are the CI bench
// report's inputs — and self-diff clean. The files tools/bench_record.py
// writes also name the machine and commit they were recorded on, and the
// perfbench ones carry every end-to-end metric of BENCHMARK.json with its
// unit and direction.
TEST_F(BenchCompareTest, LoadsCommittedBaseline) {
  std::vector<std::string> committed;
  for (const auto& file :
       std::filesystem::directory_iterator(RepoFile(""))) {
    const std::string name = file.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && file.path().extension() == ".json") {
      committed.push_back(name);
    }
  }
  for (const std::string& name : committed) {
    SCOPED_TRACE(name);
    auto entries = LoadBenchmarkJson(RepoFile(name));
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    EXPECT_GT(entries->size(), 0u);
    const BenchComparison cmp = CompareBenchmarks(*entries, *entries);
    EXPECT_EQ(CountRegressions(cmp, 10.0), 0);
  }

  auto benchmark = ParseJsonFile(RepoFile("BENCHMARK.json"));
  ASSERT_TRUE(benchmark.ok()) << benchmark.status().ToString();
  std::vector<std::string> recorded = {"BENCH_distributed.json"};
  for (const JsonValue& w : benchmark->Find("workloads")->AsArray()) {
    recorded.push_back("BENCH_" + w.GetString("name") + ".json");
  }
  for (const std::string& name : recorded) {
    SCOPED_TRACE(name);
    EXPECT_NE(std::find(committed.begin(), committed.end(), name),
              committed.end());
    JsonValue context;
    auto entries = LoadBenchmarkJson(RepoFile(name), &context);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    for (const char* key : {"nproc", "isa", "build_type", "compiler"}) {
      EXPECT_NE(context.Find(key), nullptr) << key;
    }
    EXPECT_EQ(context.GetString("source").rfind("git:", 0), 0u);
    const auto find = [&](const std::string& metric) -> const BenchEntry* {
      for (const BenchEntry& e : *entries) {
        if (e.name == metric) return &e;
      }
      return nullptr;
    };
    if (name == "BENCH_distributed.json") {
      for (const char* world : {"1", "2", "4"}) {
        const BenchEntry* gps = find(std::string("distributed/world") +
                                     world + "/graphs_per_s");
        ASSERT_NE(gps, nullptr) << "world " << world;
        EXPECT_EQ(gps->unit, "graphs/s");
        EXPECT_EQ(gps->better, BenchBetter::kHigher);
      }
      continue;
    }
    for (const JsonValue& m : benchmark->Find("end_to_end")->AsArray()) {
      const BenchEntry* e = find(m.GetString("name"));
      ASSERT_NE(e, nullptr) << m.GetString("name");
      EXPECT_EQ(e->unit, m.GetString("unit"));
      EXPECT_EQ(e->better, m.GetString("better") == "higher"
                               ? BenchBetter::kHigher
                               : BenchBetter::kLower);
      EXPECT_GT(e->value, 0.0) << e->name;
    }
  }
}

// bench_diff reads throughput the right way round: scaling every
// graphs/s and speedup entry of the committed distributed baseline by
// 1.5 is a gain, by 0.5 a regression of each scaled entry.
TEST_F(BenchCompareTest, ScaledCommittedThroughputIsJudgedByDirection) {
  auto base = LoadBenchmarkJson(RepoFile("BENCH_distributed.json"));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const auto scaled = [&](double factor, int* touched) {
    std::vector<BenchEntry> out = *base;
    for (BenchEntry& e : out) {
      const bool throughput =
          e.name.find("/graphs_per_s") != std::string::npos ||
          e.name.find("/speedup_x100") != std::string::npos;
      if (throughput) {
        e.value *= factor;
        ++*touched;
      }
    }
    const std::string path = Tmp("bench_scaled.json");
    EXPECT_TRUE(WriteBenchJson(path, "{}", out).ok());
    auto loaded = LoadBenchmarkJson(path);
    EXPECT_TRUE(loaded.ok());
    return CompareBenchmarks(*base, *loaded);
  };
  int touched = 0;
  EXPECT_EQ(CountRegressions(scaled(1.5, &touched), 10.0), 0);
  EXPECT_EQ(touched, 6);  // graphs_per_s and speedup_x100 at worlds 1, 2, 4
  touched = 0;
  EXPECT_EQ(CountRegressions(scaled(0.5, &touched), 10.0), touched);
}

}  // namespace
}  // namespace sgcl
