#include "src/harness/sweep.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/scenario_runner.h"

namespace bullet {
namespace {

TEST(ParseSweepAxisSpecTest, ParsesKeyAndValues) {
  SweepAxis axis;
  std::string error;
  ASSERT_TRUE(ParseSweepAxisSpec("nodes=20,50,100", &axis, &error)) << error;
  EXPECT_EQ(axis.key, "nodes");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"20", "50", "100"}));

  ASSERT_TRUE(ParseSweepAxisSpec("loss=0,0.01", &axis, &error)) << error;
  EXPECT_EQ(axis.key, "loss");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"0", "0.01"}));
}

TEST(ParseSweepAxisSpecTest, RejectsBadInput) {
  SweepAxis axis;
  std::string error;
  EXPECT_FALSE(ParseSweepAxisSpec("nodes", &axis, &error));          // no '='
  EXPECT_FALSE(ParseSweepAxisSpec("=1,2", &axis, &error));           // no key
  EXPECT_FALSE(ParseSweepAxisSpec("nodes=", &axis, &error));         // no values
  EXPECT_FALSE(ParseSweepAxisSpec("nodes=20,,50", &axis, &error));   // empty value
  EXPECT_FALSE(ParseSweepAxisSpec("nodes=20,abc", &axis, &error));   // not a number
  EXPECT_FALSE(ParseSweepAxisSpec("nodes=20.5", &axis, &error));     // fractional int
  EXPECT_FALSE(ParseSweepAxisSpec("nodes=1", &axis, &error));        // below range
  EXPECT_FALSE(ParseSweepAxisSpec("loss=1.5", &axis, &error));       // above range
  // Past 1e9 s the deadline would overflow simulated time (int64 microseconds).
  EXPECT_FALSE(ParseSweepAxisSpec("deadline-sec=30,1e13", &axis, &error));
  EXPECT_NE(error.find("(0, 1e9]"), std::string::npos) << error;
  EXPECT_TRUE(ParseSweepAxisSpec("deadline-sec=1e9", &axis, &error)) << error;
  EXPECT_FALSE(ParseSweepAxisSpec("warp=9", &axis, &error));         // unknown key
  EXPECT_NE(error.find("warp"), std::string::npos);
}

// A sweep value, a `set` value and a flag value all go through the option
// row's parse, so the three accept exactly the same values and fail with the
// same message (the sweep's names the value first). The table mixes accepted
// values with near misses, among them the exponent and fractional spellings of
// integers (2e1, 512.0, 4e0) that a floating-point check would accept.
TEST(SweepFlagParityTest, SweepAcceptsExactlyWhatTheFlagAccepts) {
  const std::map<std::string, std::vector<std::string>> values = {
      {"nodes", {"20", "2", "1000000", "020", "1", "1000001", "2e1", "20.0", "-5", "abc", "0x14"}},
      {"file-mb", {"0.5", "2", ".5", "1e-3", "0", "-1", "inf", "nan", "1e400", "2MB"}},
      {"block-bytes", {"512", "8192", "511", "1e30", "512.0", "99999999999999999999", "-512"}},
      {"deadline-sec", {"30", "1e9", "1e-6", "1e13", "0", "-1"}},
      {"join-fraction", {"0", "1", "0.5", "5e-1", "1.5", "-0.1"}},
      {"loss", {"0", "0.0", "0.03", "1", "1.5", "-0.01"}},
      {"lifetime-pareto-alpha", {"1.2", "1e2", "0", "-1"}},
      {"churn-model", {"none", "leaf", "stub", "gateway", "ring", "Stub"}},
      {"stream-bitrate-mbps", {"2", "0.5", "1e1", "0", "-1"}},
      {"stream-window-blocks", {"4", "1", "1000000", "0", "1000001", "4e0", "4.0", "-4"}},
  };
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    if (!def.sweepable) {
      continue;
    }
    const auto row = values.find(def.key);
    ASSERT_NE(row, values.end()) << "no parity values for " << def.key;
    for (const std::string& value : row->second) {
      const std::string assignment = std::string(def.key) + "=" + value;
      SCOPED_TRACE(assignment);
      const char* argv[] = {"bullet_run", "--scenario", "x", def.flag, value.c_str()};
      const RunnerArgs flag = ParseRunnerArgs(5, argv);

      SweepAxis axis;
      std::string sweep_error;
      EXPECT_EQ(ParseSweepAxisSpec(assignment, &axis, &sweep_error), flag.ok) << sweep_error;
      SweepSpec spec;
      std::string file_error;
      std::istringstream file("set " + assignment + "\n");
      EXPECT_EQ(ParseSweepFile(file, &spec, &file_error), flag.ok) << file_error;
      if (!flag.ok) {
        const std::string expected =
            "bad value '" + value + "' for sweep axis '" + def.key + "': " + flag.error;
        EXPECT_EQ(sweep_error, expected);
        EXPECT_EQ(file_error, "line 1: " + expected);
      }
    }
  }
}

TEST(SweepFlagParityTest, DuplicatesCompareByValue) {
  SweepAxis axis;
  std::string error;
  EXPECT_FALSE(ParseSweepAxisSpec("loss=0,0.0", &axis, &error));
  EXPECT_NE(error.find("duplicate value '0.0' in sweep axis 'loss'"), std::string::npos) << error;
  EXPECT_FALSE(ParseSweepAxisSpec("nodes=20,020", &axis, &error));
  EXPECT_NE(error.find("duplicate value '020' in sweep axis 'nodes'"), std::string::npos)
      << error;
  EXPECT_FALSE(ParseSweepAxisSpec("churn-model=stub,leaf,stub", &axis, &error));
  EXPECT_NE(error.find("duplicate value 'stub'"), std::string::npos) << error;
  EXPECT_TRUE(ParseSweepAxisSpec("nodes=20,021", &axis, &error)) << error;
}

TEST(ExpandSweepGridTest, CartesianProductWithRepeats) {
  SweepSpec spec;
  spec.scenario = "s";
  spec.repeats = 2;
  spec.base_seed = 7;
  SweepAxis nodes{"nodes", {"20", "50"}};
  SweepAxis loss{"loss", {"0", "0.01", "0.03"}};
  spec.axes = {nodes, loss};

  const std::vector<SweepPoint> points = ExpandSweepGrid(spec);
  ASSERT_EQ(points.size(), 2u * 3u * 2u);

  // Grid-major (axis 0 slowest), repeat-minor ordering.
  EXPECT_EQ(points[0].point_index, 0);
  EXPECT_EQ(points[0].repeat, 0);
  EXPECT_EQ(points[1].point_index, 0);
  EXPECT_EQ(points[1].repeat, 1);
  EXPECT_EQ(points[2].point_index, 1);

  // Cell 0: (nodes=20, loss=0); cell 3: (nodes=50, loss=0); cell 5: (50, 0.03).
  EXPECT_EQ(points[0].params[0].first, "nodes");
  EXPECT_EQ(points[0].params[0].second, "20");
  EXPECT_EQ(points[0].params[1].first, "loss");
  EXPECT_EQ(points[0].params[1].second, "0");
  EXPECT_EQ(points[6].params[0].second, "50");
  EXPECT_EQ(points[6].params[1].second, "0");
  EXPECT_EQ(points[10].params[1].second, "0.03");

  // Options carry the per-point assignment and the derived seed.
  ASSERT_TRUE(points[6].options.nodes.has_value());
  EXPECT_EQ(*points[6].options.nodes, 50);
  ASSERT_TRUE(points[6].options.loss.has_value());
  EXPECT_DOUBLE_EQ(*points[6].options.loss, 0.0);
  ASSERT_TRUE(points[6].options.seed.has_value());
  EXPECT_EQ(*points[6].options.seed, points[6].seed);
}

TEST(ExpandSweepGridTest, AxisFreeSpecYieldsRepeatsOfBasePoint) {
  SweepSpec spec;
  spec.scenario = "s";
  spec.repeats = 3;
  spec.base.nodes = 10;
  const std::vector<SweepPoint> points = ExpandSweepGrid(spec);
  ASSERT_EQ(points.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(points[static_cast<size_t>(r)].point_index, 0);
    EXPECT_EQ(points[static_cast<size_t>(r)].repeat, r);
    EXPECT_EQ(*points[static_cast<size_t>(r)].options.nodes, 10);
  }
}

TEST(DeriveSweepSeedTest, DeterministicAndDecorrelated) {
  EXPECT_EQ(DeriveSweepSeed(41, 3, 1), DeriveSweepSeed(41, 3, 1));
  std::set<uint64_t> seen;
  for (uint64_t base : {0ull, 1ull, 41ull}) {
    for (int point = 0; point < 8; ++point) {
      for (int repeat = 0; repeat < 4; ++repeat) {
        seen.insert(DeriveSweepSeed(base, point, repeat));
      }
    }
  }
  // All (base, point, repeat) combinations map to distinct streams.
  EXPECT_EQ(seen.size(), 3u * 8u * 4u);
}

TEST(ParseSweepFileTest, ParsesDirectivesAndComments) {
  std::istringstream in(
      "# sweep for the peerset family\n"
      "scenario fig07_peerset_static\n"
      "name fig07  # trailing comment\n"
      "repeats 3\n"
      "seed 700\n"
      "set block-bytes=8192\n"
      "\n"
      "sweep nodes=50,100\n"
      "sweep loss=0,0.01\n");
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepFile(in, &spec, &error)) << error;
  EXPECT_EQ(spec.scenario, "fig07_peerset_static");
  EXPECT_EQ(spec.name, "fig07");
  EXPECT_EQ(spec.repeats, 3);
  EXPECT_EQ(spec.base_seed, 700u);
  ASSERT_TRUE(spec.base.block_bytes.has_value());
  EXPECT_EQ(*spec.base.block_bytes, 8192);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].key, "nodes");
  EXPECT_EQ(spec.axes[1].key, "loss");
}

TEST(ParseSweepFileTest, SeedParsesExactlyAbove2Pow53) {
  std::istringstream in("scenario s\nseed 9007199254740993\n");
  SweepSpec spec;
  std::string error;
  ASSERT_TRUE(ParseSweepFile(in, &spec, &error)) << error;
  // A double round-trip would collapse 2^53+1 onto 2^53.
  EXPECT_EQ(spec.base_seed, 9007199254740993ull);
}

TEST(ParseSweepFileTest, RejectsDuplicateAxis) {
  std::istringstream in("scenario s\nsweep nodes=20,50\nsweep nodes=100\n");
  SweepSpec spec;
  std::string error;
  EXPECT_FALSE(ParseSweepFile(in, &spec, &error));
  EXPECT_NE(error.find("duplicate sweep axis 'nodes'"), std::string::npos);
}

TEST(FindDuplicateAxisKeyTest, DetectsRepeatedKeys) {
  std::string key;
  EXPECT_FALSE(
      FindDuplicateAxisKey({SweepAxis{"nodes", {"2"}}, SweepAxis{"loss", {"0"}}}, &key));
  EXPECT_TRUE(FindDuplicateAxisKey(
      {SweepAxis{"nodes", {"2"}}, SweepAxis{"loss", {"0"}}, SweepAxis{"nodes", {"4"}}}, &key));
  EXPECT_EQ(key, "nodes");
}

TEST(ParseSweepFileTest, RejectsBadDirectives) {
  SweepSpec spec;
  std::string error;
  {
    std::istringstream in("teleport nodes=3\n");
    EXPECT_FALSE(ParseSweepFile(in, &spec, &error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
  }
  {
    std::istringstream in("repeats zero\n");
    EXPECT_FALSE(ParseSweepFile(in, &spec, &error));
  }
  {
    // `repeats` takes the --repeats flag's syntax: a plain integer.
    std::istringstream in("repeats 2.0\n");
    EXPECT_FALSE(ParseSweepFile(in, &spec, &error));
  }
  {
    std::istringstream in("sweep nodes=50 extra\n");
    EXPECT_FALSE(ParseSweepFile(in, &spec, &error));
  }
  {
    std::istringstream in("sweep warp=1\n");
    EXPECT_FALSE(ParseSweepFile(in, &spec, &error));
  }
  {
    std::istringstream in("set deadline-sec=1e13\n");
    EXPECT_FALSE(ParseSweepFile(in, &spec, &error));
  }
}

// A registry whose scenario derives every reported value from its options, so
// sweep results are predictable and any cross-run state sharing would show up.
ScenarioRegistry MakeFakeRegistry() {
  ScenarioRegistry registry;
  registry.Register("fake", "options-echoing scenario", [](const ScenarioOptions& opts) {
    ScenarioReport report("fake");
    report.AddScalar("nodes", static_cast<double>(opts.nodes.value_or(-1)));
    report.AddScalar("seed_lo", static_cast<double>(opts.seed.value_or(0) % 1000000));
    ScenarioResult result;
    result.name = "Sys";
    const double base = static_cast<double>(opts.nodes.value_or(0));
    result.completion_sec = {base + 1.0, base + 2.0, base + 3.0};
    result.completed = 3;
    result.receivers = 3;
    report.AddCompletion(result);
    return report;
  });
  return registry;
}

std::string SweepJsonFor(const ScenarioRegistry& registry, int jobs, uint64_t base_seed) {
  SweepSpec spec;
  spec.scenario = "fake";
  spec.name = "t";
  spec.repeats = 3;
  spec.base_seed = base_seed;
  spec.axes = {SweepAxis{"nodes", {"10", "20", "30"}}, SweepAxis{"loss", {"0", "0.01"}}};
  const SweepRunOutcome outcome = RunSweep(spec, registry, jobs);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.runs.size(), 3u * 2u * 3u);
  std::ostringstream os;
  WriteSweepJson(os, outcome);
  return os.str();
}

TEST(RunSweepTest, AggregateJsonIsByteIdenticalAcrossJobsAndRuns) {
  const ScenarioRegistry registry = MakeFakeRegistry();
  const std::string serial = SweepJsonFor(registry, 1, 41);
  const std::string parallel = SweepJsonFor(registry, 4, 41);
  const std::string again = SweepJsonFor(registry, 4, 41);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(parallel, again);
  // A different base seed must change the derived streams (and so the JSON).
  EXPECT_NE(serial, SweepJsonFor(registry, 1, 42));
}

TEST(RunSweepTest, ReportsUnknownScenario) {
  const ScenarioRegistry registry = MakeFakeRegistry();
  SweepSpec spec;
  spec.scenario = "missing";
  const SweepRunOutcome outcome = RunSweep(spec, registry, 1);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("missing"), std::string::npos);
}

TEST(RunSweepTest, RejectsDuplicateAxisKeys) {
  const ScenarioRegistry registry = MakeFakeRegistry();
  SweepSpec spec;
  spec.scenario = "fake";
  spec.axes = {SweepAxis{"nodes", {"10", "20"}}, SweepAxis{"nodes", {"30"}}};
  const SweepRunOutcome outcome = RunSweep(spec, registry, 1);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("duplicate sweep axis"), std::string::npos);
}

TEST(RunSweepTest, PropagatesScenarioExceptions) {
  ScenarioRegistry registry;
  registry.Register("boom", "throws", [](const ScenarioOptions&) -> ScenarioReport {
    throw std::runtime_error("kaboom");
  });
  SweepSpec spec;
  spec.scenario = "boom";
  const SweepRunOutcome outcome = RunSweep(spec, registry, 2);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("kaboom"), std::string::npos);
}

TEST(FlattenReportMetricsTest, NamespacesSeriesAndScalars) {
  ScenarioReport report("x");
  report.AddScalar("optimal_s", 4.5);
  ScenarioResult result;
  result.name = "Sys";
  result.completion_sec = {1.0, 2.0, 3.0, 4.0};
  result.completed = 4;
  result.receivers = 4;
  report.AddCompletion(result);

  const std::map<std::string, double> flat = FlattenReportMetrics(report);
  EXPECT_DOUBLE_EQ(flat.at("optimal_s"), 4.5);
  EXPECT_DOUBLE_EQ(flat.at("Sys.count"), 4.0);
  EXPECT_DOUBLE_EQ(flat.at("Sys.p50_s"), 2.5);
  EXPECT_DOUBLE_EQ(flat.at("Sys.max_s"), 4.0);
  EXPECT_DOUBLE_EQ(flat.at("Sys.completed"), 4.0);
}

TEST(WriteSweepJsonTest, AggregatesMedianAcrossRepeats) {
  // Hand-built outcome: one point, three repeats with scalar v = 1, 5, 3.
  SweepSpec spec;
  spec.scenario = "s";
  spec.name = "agg";
  spec.repeats = 3;
  SweepRunOutcome outcome;
  outcome.ok = true;
  outcome.spec = spec;
  for (int r = 0; r < 3; ++r) {
    ScenarioContext ctx;
    ctx.point.point_index = 0;
    ctx.point.repeat = r;
    ctx.point.seed = DeriveSweepSeed(1, 0, r);
    ScenarioReport report("s");
    report.AddScalar("v", r == 0 ? 1.0 : (r == 1 ? 5.0 : 3.0));
    ctx.report = std::move(report);
    outcome.runs.push_back(std::move(ctx));
  }
  std::ostringstream os;
  WriteSweepJson(os, outcome);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"bullet-bench-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep\":\"agg\""), std::string::npos);
  EXPECT_NE(json.find("\"v\":{\"median\":3,"), std::string::npos);
  // Profile counts appear in the aggregate only for profiled builds (counts
  // are deterministic, so either way the document stays --jobs-invariant).
  EXPECT_EQ(json.find("\"profile\"") != std::string::npos, PhaseProfiler::kCompiledIn);
}

TEST(WriteSweepJsonTest, PrintsTheNumberAValueDenotes) {
  // Numeric axes print the parsed number, not the text (020 prints as 20);
  // string axes print their text.
  ScenarioRegistry registry;
  registry.Register("probe", "empty report", [](const ScenarioOptions&) {
    return ScenarioReport("probe");
  });
  SweepSpec spec;
  spec.scenario = "probe";
  spec.axes = {SweepAxis{"nodes", {"020"}}, SweepAxis{"file-mb", {"2.50"}},
               SweepAxis{"churn-model", {"stub"}}};
  const SweepRunOutcome outcome = RunSweep(spec, registry, 1);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.runs.size(), 1u);
  EXPECT_EQ(outcome.runs[0].point.options.nodes, 20);
  std::ostringstream os;
  WriteSweepJson(os, outcome);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"values\":[20]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"values\":[2.5]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"params\":{\"nodes\":20,\"file-mb\":2.5,\"churn-model\":\"stub\"}"),
            std::string::npos)
      << json;
}

TEST(RunSweepTest, RejectsValuesTheFlagRejects) {
  const ScenarioRegistry registry = MakeFakeRegistry();
  SweepSpec spec;
  spec.scenario = "fake";
  spec.axes = {SweepAxis{"block-bytes", {"1e30"}}};
  const SweepRunOutcome outcome = RunSweep(spec, registry, 1);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error,
            "bad value '1e30' for sweep axis 'block-bytes': --block-bytes requires an integer "
            ">= 512");
  EXPECT_TRUE(outcome.runs.empty());
}

TEST(WriteSweepFloorsJsonTest, EmitsMedianWallAndNormalizedThroughput) {
  // One point, two repeats: wall 2s/4s with 600/600 events and 1200/1200 sim
  // bytes -> median wall 3s, floors 200 events/s and 400 bytes/s.
  SweepSpec spec;
  spec.scenario = "s";
  spec.name = "fl";
  spec.repeats = 2;
  SweepRunOutcome outcome;
  outcome.ok = true;
  outcome.spec = spec;
  for (int r = 0; r < 2; ++r) {
    ScenarioContext ctx;
    ctx.point.point_index = 0;
    ctx.point.repeat = r;
    ctx.wall_sec = r == 0 ? 2.0 : 4.0;
    ctx.counters.events_executed = 600;
    ctx.counters.sim_bytes_sent = 1200;
    ctx.report = ScenarioReport("s");
    outcome.runs.push_back(std::move(ctx));
  }
  std::ostringstream os;
  WriteSweepFloorsJson(os, outcome);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"bullet-floors-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_sec_median\":3,"), std::string::npos);
  EXPECT_NE(json.find("\"events_executed_median\":600,"), std::string::npos);
  EXPECT_NE(json.find("\"floors\":{\"events_per_wall_sec\":200,\"sim_bytes_per_wall_sec\":400}"),
            std::string::npos);
  // The document says what hardware produced it.
  const size_t nproc = json.find("\"nproc\":");
  ASSERT_NE(nproc, std::string::npos);
  EXPECT_GE(std::atoi(json.c_str() + nproc + 8), 1);
  EXPECT_NE(json.find("\"cpu_model\":\""), std::string::npos);
}

}  // namespace
}  // namespace bullet
