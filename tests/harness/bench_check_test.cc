#include "src/harness/bench_check.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace bullet {
namespace {

// A two-point bullet-bench-v3 document with one metric band per point.
std::string Doc(double p0_median, double p1_median, const char* schema = "bullet-bench-v3",
                const char* scenario = "fig04") {
  std::ostringstream os;
  os << R"({"schema":")" << schema << R"(","sweep":"ci","scenario":")" << scenario
     << R"(","base_seed":41,"repeats":2,"points":[)"
     << R"({"point_index":0,"params":{"nodes":20},"metrics":{"Sys.p50_s":{"median":)"
     << p0_median << R"(,"p10":1,"p90":2}}},)"
     << R"({"point_index":1,"params":{"nodes":50},"metrics":{"Sys.p50_s":{"median":)"
     << p1_median << R"(,"p10":1,"p90":2}}}]})";
  return os.str();
}

JsonValue Parse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &value, &error)) << error;
  return value;
}

int Compare(const std::string& baseline, const std::string& current,
            const BenchCheckOptions& opts, std::string* log_out = nullptr) {
  std::ostringstream log;
  const int rc = CompareSweepDocs(Parse(baseline), Parse(current), opts, log);
  if (log_out != nullptr) {
    *log_out = log.str();
  }
  return rc;
}

TEST(BenchCheckTest, PassesWithinTolerance) {
  BenchCheckOptions opts;
  opts.rel_tol = 0.25;
  // 10% drift on both points: inside the 25% band.
  EXPECT_EQ(Compare(Doc(10.0, 20.0), Doc(11.0, 22.0), opts), kBenchCheckOk);
  // Identical documents always pass.
  EXPECT_EQ(Compare(Doc(10.0, 20.0), Doc(10.0, 20.0), opts), kBenchCheckOk);
}

TEST(BenchCheckTest, FailsOutsideTolerance) {
  BenchCheckOptions opts;
  opts.rel_tol = 0.25;
  std::string log;
  EXPECT_EQ(Compare(Doc(10.0, 20.0), Doc(13.0, 20.0), opts, &log), kBenchCheckRegression);
  EXPECT_NE(log.find("FAIL point {nodes=20} Sys.p50_s"), std::string::npos);
  EXPECT_NE(log.find("1 out of tolerance"), std::string::npos);
  // Regressions in either direction count: a suspiciously faster run still trips
  // the gate (it usually means the workload silently shrank).
  EXPECT_EQ(Compare(Doc(10.0, 20.0), Doc(7.0, 20.0), opts), kBenchCheckRegression);
}

TEST(BenchCheckTest, PerMetricToleranceOverride) {
  BenchCheckOptions opts;
  opts.rel_tol = 0.05;
  EXPECT_EQ(Compare(Doc(10.0, 20.0), Doc(12.0, 20.0), opts), kBenchCheckRegression);
  opts.metric_rel_tol["Sys.p50_s"] = 0.5;
  EXPECT_EQ(Compare(Doc(10.0, 20.0), Doc(12.0, 20.0), opts), kBenchCheckOk);
}

TEST(BenchCheckTest, AbsoluteFloorForTinyBaselines) {
  BenchCheckOptions opts;
  opts.rel_tol = 0.25;
  opts.abs_tol = 0.5;
  // Relative band on a 0.0 baseline is empty; the absolute floor keeps noise-level
  // metrics from flapping.
  EXPECT_EQ(Compare(Doc(0.0, 20.0), Doc(0.4, 20.0), opts), kBenchCheckOk);
  EXPECT_EQ(Compare(Doc(0.0, 20.0), Doc(0.6, 20.0), opts), kBenchCheckRegression);
}

TEST(BenchCheckTest, MissingMetricIsRegression) {
  BenchCheckOptions opts;
  const std::string current =
      R"({"schema":"bullet-bench-v3","scenario":"fig04","points":[)"
      R"({"point_index":0,"params":{"nodes":20},"metrics":{}},)"
      R"({"point_index":1,"params":{"nodes":50},"metrics":{"Sys.p50_s":{"median":20}}}]})";
  std::string log;
  EXPECT_EQ(Compare(Doc(10.0, 20.0), current, opts, &log), kBenchCheckRegression);
  EXPECT_NE(log.find("metric missing"), std::string::npos);
}

TEST(BenchCheckTest, MissingPointIsRegression) {
  BenchCheckOptions opts;
  const std::string current =
      R"({"schema":"bullet-bench-v3","scenario":"fig04","points":[)"
      R"({"point_index":0,"params":{"nodes":20},"metrics":{"Sys.p50_s":{"median":10}}}]})";
  std::string log;
  EXPECT_EQ(Compare(Doc(10.0, 20.0), current, opts, &log), kBenchCheckRegression);
  EXPECT_NE(log.find("missing from current sweep"), std::string::npos);
}

TEST(BenchCheckTest, ExtraCurrentMetricsAndPointsAreIgnored) {
  BenchCheckOptions opts;
  const std::string current =
      R"({"schema":"bullet-bench-v3","scenario":"fig04","points":[)"
      R"({"point_index":0,"params":{"nodes":20},)"
      R"("metrics":{"Sys.p50_s":{"median":10},"New.p50_s":{"median":99}}},)"
      R"({"point_index":1,"params":{"nodes":50},"metrics":{"Sys.p50_s":{"median":20}}},)"
      R"({"point_index":2,"params":{"nodes":80},"metrics":{"Sys.p50_s":{"median":77}}}]})";
  EXPECT_EQ(Compare(Doc(10.0, 20.0), current, opts), kBenchCheckOk);
}

TEST(BenchCheckTest, IncomparableSweepParametersAreBadInput) {
  BenchCheckOptions opts;
  const auto doc = [](const char* preamble) {
    return std::string(R"({"schema":"bullet-bench-v3","scenario":"fig04",)") + preamble +
           R"("points":[{"point_index":0,"params":{"nodes":20},)"
           R"("metrics":{"Sys.p50_s":{"median":10}}}]})";
  };
  const std::string base = doc(R"("base_seed":41,"repeats":2,"repro_scale":0.2,)");
  // Differing seed, repeats, or REPRO_SCALE means the sweeps measured different
  // things — diagnose, don't report tolerance failures.
  std::string log;
  EXPECT_EQ(Compare(base, doc(R"("base_seed":42,"repeats":2,"repro_scale":0.2,)"), opts, &log),
            kBenchCheckBadInput);
  EXPECT_NE(log.find("base_seed mismatch"), std::string::npos);
  EXPECT_EQ(Compare(base, doc(R"("base_seed":41,"repeats":3,"repro_scale":0.2,)"), opts),
            kBenchCheckBadInput);
  EXPECT_EQ(Compare(base, doc(R"("base_seed":41,"repeats":2,"repro_scale":1,)"), opts),
            kBenchCheckBadInput);
  EXPECT_EQ(Compare(base, doc(R"("base_seed":41,"repeats":2,"repro_scale":0.2,)"), opts),
            kBenchCheckOk);
}

TEST(BenchCheckTest, SchemaOrScenarioMismatchIsBadInput) {
  BenchCheckOptions opts;
  EXPECT_EQ(Compare(Doc(10, 20, "bullet-bench-v1"), Doc(10, 20), opts), kBenchCheckBadInput);
  EXPECT_EQ(Compare(Doc(10, 20), Doc(10, 20, "bullet-bench-v1"), opts), kBenchCheckBadInput);
  EXPECT_EQ(Compare(Doc(10, 20), Doc(10, 20, "bullet-bench-v3", "fig05"), opts),
            kBenchCheckBadInput);
  EXPECT_EQ(Compare("[1,2,3]", Doc(10, 20), opts), kBenchCheckBadInput);
}

TEST(BenchCheckTest, RejectsV2AggregateOnEitherSide) {
  BenchCheckOptions opts;
  // The gate reads one aggregate schema: a v2 document on either side is bad
  // input, even where its medians would pass.
  std::string log;
  EXPECT_EQ(Compare(Doc(10, 20, "bullet-bench-v2"), Doc(10, 20), opts, &log),
            kBenchCheckBadInput);
  EXPECT_NE(log.find("baseline has schema 'bullet-bench-v2', expected 'bullet-bench-v3'"),
            std::string::npos);
  EXPECT_EQ(Compare(Doc(10, 20), Doc(10, 20, "bullet-bench-v2"), opts), kBenchCheckBadInput);
  EXPECT_EQ(Compare(Doc(10, 20), Doc(13, 20), opts), kBenchCheckRegression);
}

// A two-point bullet-floors-v1 document with the two gated throughput metrics.
std::string FloorsDoc(double p0_events, double p1_events, double bytes = 1e6,
                      const char* schema = "bullet-floors-v1") {
  std::ostringstream os;
  os << R"({"schema":")" << schema
     << R"(","sweep":"ci","scenario":"fig04","base_seed":41,"repeats":2,"points":[)"
     << R"({"point_index":0,"params":{"nodes":20},"wall_sec_median":1,)"
     << R"("floors":{"events_per_wall_sec":)" << p0_events << R"(,"sim_bytes_per_wall_sec":)"
     << bytes << R"(}},)"
     << R"({"point_index":1,"params":{"nodes":50},"wall_sec_median":1,)"
     << R"("floors":{"events_per_wall_sec":)" << p1_events << R"(,"sim_bytes_per_wall_sec":)"
     << bytes << R"(}}]})";
  return os.str();
}

TEST(BenchCheckFloorsTest, OneSidedGate) {
  BenchCheckOptions opts;
  // Meeting or beating every floor passes; faster is never a failure.
  EXPECT_EQ(Compare(FloorsDoc(1000, 2000), FloorsDoc(1000, 2000), opts), kBenchCheckOk);
  EXPECT_EQ(Compare(FloorsDoc(1000, 2000), FloorsDoc(9999, 99999), opts), kBenchCheckOk);
  // One point below its events/sec floor fails, and the log names it.
  std::string log;
  EXPECT_EQ(Compare(FloorsDoc(1000, 2000), FloorsDoc(900, 2000), opts, &log),
            kBenchCheckRegression);
  EXPECT_NE(log.find("FAIL point {nodes=20} events_per_wall_sec"), std::string::npos);
  EXPECT_NE(log.find("below floor"), std::string::npos);
}

TEST(BenchCheckFloorsTest, TolerancesDoNotApply) {
  BenchCheckOptions opts;
  opts.rel_tol = 10.0;  // huge band in the two-sided mode...
  // ...but the floor gate stays strict: 900 < 1000 fails regardless.
  EXPECT_EQ(Compare(FloorsDoc(1000, 2000), FloorsDoc(900, 2000), opts), kBenchCheckRegression);
}

TEST(BenchCheckFloorsTest, MixedSchemasAreBadInput) {
  BenchCheckOptions opts;
  // A floors baseline demands a floors current, and vice versa.
  EXPECT_EQ(Compare(FloorsDoc(1000, 2000), Doc(10, 20), opts), kBenchCheckBadInput);
  EXPECT_EQ(Compare(Doc(10, 20), FloorsDoc(1000, 2000), opts), kBenchCheckBadInput);
  EXPECT_EQ(Compare(FloorsDoc(1000, 2000), FloorsDoc(1000, 2000, 1e6, "bullet-floors-v0"),
                    opts),
            kBenchCheckBadInput);
}

TEST(BenchCheckFloorsTest, MissingPointOrFloorIsRegression) {
  BenchCheckOptions opts;
  const std::string current =
      R"({"schema":"bullet-floors-v1","scenario":"fig04","points":[)"
      R"({"point_index":0,"params":{"nodes":20},)"
      R"("floors":{"events_per_wall_sec":5000}}]})";
  std::string log;
  // Point {nodes=50} is absent and {nodes=20} lacks sim_bytes_per_wall_sec.
  EXPECT_EQ(Compare(FloorsDoc(1000, 2000), current, opts, &log), kBenchCheckRegression);
  EXPECT_NE(log.find("missing from current floors"), std::string::npos);
}

// A two-point bullet-ceilings-v1 document with the gated memory byte counters.
std::string CeilingsDoc(double p0_arena, double p1_arena, double route = 5e5,
                        const char* schema = "bullet-ceilings-v1") {
  std::ostringstream os;
  os << R"({"schema":")" << schema
     << R"(","sweep":"megaswarm","scenario":"fig24_megaswarm","base_seed":2401,"repeats":1,)"
     << R"("points":[)"
     << R"({"point_index":0,"params":{"nodes":2000},)"
     << R"("ceilings":{"arena_peak_bytes":)" << p0_arena << R"(,"route_cache_bytes":)"
     << route << R"(}},)"
     << R"({"point_index":1,"params":{"nodes":5000},)"
     << R"("ceilings":{"arena_peak_bytes":)" << p1_arena << R"(,"route_cache_bytes":)"
     << route << R"(}}]})";
  return os.str();
}

TEST(BenchCheckCeilingsTest, OneSidedGateInverted) {
  BenchCheckOptions opts;
  // Meeting or undercutting every ceiling passes; using less memory is never a
  // failure (the floors gate, mirrored).
  EXPECT_EQ(Compare(CeilingsDoc(1e6, 2e6), CeilingsDoc(1e6, 2e6), opts), kBenchCheckOk);
  EXPECT_EQ(Compare(CeilingsDoc(1e6, 2e6), CeilingsDoc(5e5, 1e6), opts), kBenchCheckOk);
  // One point above its arena ceiling fails, and the log names it.
  std::string log;
  EXPECT_EQ(Compare(CeilingsDoc(1e6, 2e6), CeilingsDoc(1.5e6, 2e6), opts, &log),
            kBenchCheckRegression);
  EXPECT_NE(log.find("FAIL point {nodes=2000} arena_peak_bytes"), std::string::npos);
  EXPECT_NE(log.find("above ceiling"), std::string::npos);
}

TEST(BenchCheckCeilingsTest, TolerancesDoNotApply) {
  BenchCheckOptions opts;
  opts.rel_tol = 10.0;  // irrelevant: the memory gate is strict
  // Even a 0.01% breach fails; there is no tolerance band on memory.
  EXPECT_EQ(Compare(CeilingsDoc(1e6, 2e6), CeilingsDoc(1.0001e6, 2e6), opts),
            kBenchCheckRegression);
}

TEST(BenchCheckCeilingsTest, MixedSchemasAreBadInput) {
  BenchCheckOptions opts;
  // Ceilings baselines demand ceilings currents — no silent cross-gating with
  // band aggregates or floors docs.
  EXPECT_EQ(Compare(CeilingsDoc(1e6, 2e6), Doc(10, 20), opts), kBenchCheckBadInput);
  EXPECT_EQ(Compare(Doc(10, 20), CeilingsDoc(1e6, 2e6), opts), kBenchCheckBadInput);
  EXPECT_EQ(Compare(CeilingsDoc(1e6, 2e6), FloorsDoc(1000, 2000), opts), kBenchCheckBadInput);
  EXPECT_EQ(Compare(CeilingsDoc(1e6, 2e6), CeilingsDoc(1e6, 2e6, 5e5, "bullet-ceilings-v0"),
                    opts),
            kBenchCheckBadInput);
}

TEST(BenchCheckCeilingsTest, MissingPointOrMetricIsRegression) {
  BenchCheckOptions opts;
  const std::string current =
      R"({"schema":"bullet-ceilings-v1","scenario":"fig24_megaswarm","points":[)"
      R"({"point_index":0,"params":{"nodes":2000},)"
      R"("ceilings":{"arena_peak_bytes":1000}}]})";
  std::string log;
  // Point {nodes=5000} is absent and {nodes=2000} lacks route_cache_bytes.
  EXPECT_EQ(Compare(CeilingsDoc(1e6, 2e6), current, opts, &log), kBenchCheckRegression);
  EXPECT_NE(log.find("missing from current ceilings"), std::string::npos);
}

TEST(BenchCheckTest, PointMatchingIgnoresAxisDeclarationOrder) {
  BenchCheckOptions opts;
  const auto doc = [](const char* params) {
    return std::string(R"({"schema":"bullet-bench-v3","scenario":"fig04","points":[)") +
           R"({"point_index":0,"params":)" + params +
           R"(,"metrics":{"Sys.p50_s":{"median":10}}}]})";
  };
  // Same point identity whether params were written nodes-first or loss-first.
  EXPECT_EQ(Compare(doc(R"({"nodes":20,"loss":0.01})"), doc(R"({"loss":0.01,"nodes":20})"),
                    opts),
            kBenchCheckOk);
}

}  // namespace
}  // namespace bullet
