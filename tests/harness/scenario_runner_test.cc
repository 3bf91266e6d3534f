#include "src/harness/scenario_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/bench_check.h"
#include "src/harness/json_reader.h"
#include "src/harness/json_writer.h"

namespace bullet {
namespace {

RunnerArgs Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bullet_run");
  return ParseRunnerArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseRunnerArgsTest, ListFlag) {
  const RunnerArgs args = Parse({"--list"});
  EXPECT_TRUE(args.ok);
  EXPECT_TRUE(args.list);
}

TEST(ParseRunnerArgsTest, ScenarioWithOverrides) {
  const RunnerArgs args = Parse({"--scenario", "fig04_overall_static", "--nodes", "20",
                                 "--file-mb=2.5", "--seed=42", "--block-bytes", "8192",
                                 "--deadline-sec", "600", "--out", "x.json", "--quiet"});
  ASSERT_TRUE(args.ok) << args.error;
  EXPECT_EQ(args.scenario, "fig04_overall_static");
  ASSERT_TRUE(args.options.nodes.has_value());
  EXPECT_EQ(*args.options.nodes, 20);
  ASSERT_TRUE(args.options.file_mb.has_value());
  EXPECT_DOUBLE_EQ(*args.options.file_mb, 2.5);
  ASSERT_TRUE(args.options.seed.has_value());
  EXPECT_EQ(*args.options.seed, 42u);
  ASSERT_TRUE(args.options.block_bytes.has_value());
  EXPECT_EQ(*args.options.block_bytes, 8192);
  ASSERT_TRUE(args.options.deadline_sec.has_value());
  EXPECT_DOUBLE_EQ(*args.options.deadline_sec, 600.0);
  EXPECT_EQ(args.out_path, "x.json");
  EXPECT_TRUE(args.quiet);
}

TEST(ParseRunnerArgsTest, SweepFlags) {
  const RunnerArgs args =
      Parse({"--scenario", "fig04_overall_static", "--sweep", "nodes=20,50,100",
             "--sweep=loss=0,0.01", "--repeats", "2", "--jobs", "4", "--sweep-name", "ci",
             "--out-dir", "artifacts", "--loss", "0.02"});
  ASSERT_TRUE(args.ok) << args.error;
  EXPECT_TRUE(args.sweep_mode());
  ASSERT_EQ(args.sweep_axes.size(), 2u);
  EXPECT_EQ(args.sweep_axes[0].key, "nodes");
  EXPECT_EQ(args.sweep_axes[0].values, (std::vector<std::string>{"20", "50", "100"}));
  EXPECT_EQ(args.sweep_axes[1].key, "loss");
  ASSERT_TRUE(args.repeats.has_value());
  EXPECT_EQ(*args.repeats, 2);
  EXPECT_EQ(args.jobs, 4);
  ASSERT_TRUE(args.sweep_name.has_value());
  EXPECT_EQ(*args.sweep_name, "ci");
  EXPECT_EQ(args.out_dir, "artifacts");
  ASSERT_TRUE(args.options.loss.has_value());
  EXPECT_DOUBLE_EQ(*args.options.loss, 0.02);
}

TEST(ParseRunnerArgsTest, SingleRunIsNotSweepMode) {
  const RunnerArgs args = Parse({"--scenario", "x", "--nodes", "20"});
  ASSERT_TRUE(args.ok) << args.error;
  EXPECT_FALSE(args.sweep_mode());
}

TEST(ParseRunnerArgsTest, SweepFileAloneSufficesAsMode) {
  const RunnerArgs args = Parse({"--sweep-file", "spec.sweep"});
  ASSERT_TRUE(args.ok) << args.error;  // scenario may come from the file
  EXPECT_TRUE(args.sweep_mode());
}

TEST(ParseRunnerArgsTest, RejectsBadSweepValues) {
  EXPECT_FALSE(Parse({"--scenario", "x", "--sweep", "warp=1"}).ok);
  EXPECT_FALSE(Parse({"--scenario", "x", "--sweep", "nodes"}).ok);
  EXPECT_FALSE(Parse({"--scenario", "x", "--repeats", "0"}).ok);
  EXPECT_FALSE(Parse({"--scenario", "x", "--jobs", "-1"}).ok);
  EXPECT_FALSE(Parse({"--scenario", "x", "--loss", "1.5"}).ok);
}

TEST(ParseRunnerArgsTest, SystemFlag) {
  const RunnerArgs args = Parse({"--scenario", "x", "--system", "bittorrent"});
  ASSERT_TRUE(args.ok) << args.error;
  ASSERT_TRUE(args.options.system.has_value());
  EXPECT_EQ(*args.options.system, "bittorrent");
  for (const char* key : {"bullet-prime", "bullet", "splitstream"}) {
    EXPECT_TRUE(Parse({"--scenario", "x", "--system", key}).ok) << key;
  }
  EXPECT_FALSE(Parse({"--scenario", "x", "--system"}).ok);  // missing value
  const RunnerArgs unknown = Parse({"--scenario", "x", "--system", "gnutella"});
  EXPECT_FALSE(unknown.ok);  // unknown names are usage errors (exit 2 below)
  EXPECT_NE(unknown.error.find("registered protocol"), std::string::npos) << unknown.error;
}

TEST(ParseRunnerArgsTest, JoinFractionFlag) {
  const RunnerArgs args = Parse({"--scenario", "x", "--join-fraction", "0.5"});
  ASSERT_TRUE(args.ok) << args.error;
  ASSERT_TRUE(args.options.join_fraction.has_value());
  EXPECT_DOUBLE_EQ(*args.options.join_fraction, 0.5);
  EXPECT_TRUE(Parse({"--scenario", "x", "--join-fraction", "0"}).ok);
  EXPECT_TRUE(Parse({"--scenario", "x", "--join-fraction", "1"}).ok);
  EXPECT_FALSE(Parse({"--scenario", "x", "--join-fraction", "1.5"}).ok);
  EXPECT_FALSE(Parse({"--scenario", "x", "--join-fraction", "-0.1"}).ok);
  EXPECT_FALSE(Parse({"--scenario", "x", "--join-fraction", "abc"}).ok);
}

TEST(ParseRunnerArgsTest, RejectsUnknownFlag) {
  const RunnerArgs args = Parse({"--scenario", "x", "--frobnicate"});
  EXPECT_FALSE(args.ok);
  EXPECT_NE(args.error.find("--frobnicate"), std::string::npos);
}

TEST(ParseRunnerArgsTest, RejectsBadValues) {
  EXPECT_FALSE(Parse({"--scenario", "x", "--nodes", "1"}).ok);       // < 2
  EXPECT_FALSE(Parse({"--scenario", "x", "--nodes", "abc"}).ok);     // not a number
  EXPECT_FALSE(Parse({"--scenario", "x", "--nodes", "20.7"}).ok);    // fractional
  EXPECT_FALSE(Parse({"--scenario", "x", "--seed", "-1"}).ok);       // negative unsigned
  EXPECT_FALSE(Parse({"--scenario", "x", "--seed", " -1"}).ok);      // whitespace-masked sign
  EXPECT_FALSE(Parse({"--scenario", "x", "--block-bytes", "1e19"}).ok);  // not plain int
  EXPECT_FALSE(Parse({"--scenario", "x", "--file-mb", "nan"}).ok);   // non-finite
  EXPECT_FALSE(Parse({"--scenario", "x", "--file-mb", "inf"}).ok);   // non-finite
  EXPECT_FALSE(Parse({"--scenario", "x", "--file-mb", "-3"}).ok);    // negative
  EXPECT_FALSE(Parse({"--scenario", "x", "--nodes"}).ok);            // missing value
  EXPECT_FALSE(Parse({}).ok);                                        // no mode at all

  // Large seeds must round-trip exactly (no float precision loss).
  const RunnerArgs big = Parse({"--scenario", "x", "--seed", "18446744073709551615"});
  ASSERT_TRUE(big.ok) << big.error;
  EXPECT_EQ(*big.options.seed, 18446744073709551615ull);
}

class RunnerMainTest : public ::testing::Test {
 protected:
  RunnerMainTest() {
    registry_.Register("tiny", "a tiny test scenario", [](const ScenarioOptions& opts) {
      ScenarioReport report("tiny");
      report.AddScalar("nodes", opts.nodes.value_or(-1));
      WorkloadResult run;
      SessionResult& result = run.sessions.emplace_back();
      result.name = "SystemX";
      result.completion_sec = {1.0, 2.0};
      result.completed = 2;
      result.receivers = 2;
      report.AddCompletion(run);
      return report;
    });
  }

  int Run(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "bullet_run");
    return RunnerMain(static_cast<int>(argv.size()), argv.data(), registry_, out_, err_);
  }

  ScenarioRegistry registry_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(RunnerMainTest, ListPrintsRegisteredScenarios) {
  EXPECT_EQ(Run({"--list"}), 0);
  EXPECT_NE(out_.str().find("tiny\ta tiny test scenario"), std::string::npos);
}

TEST_F(RunnerMainTest, UnknownScenarioIsUsageError) {
  // Usage-class failures exit 2 with nothing on stdout, so shell pipelines and CI
  // log scraping keep working.
  EXPECT_EQ(Run({"--scenario", "missing"}), 2);
  EXPECT_NE(err_.str().find("unknown scenario 'missing'"), std::string::npos);
  EXPECT_TRUE(out_.str().empty());
}

TEST_F(RunnerMainTest, BadFlagFailsWithUsage) {
  EXPECT_EQ(Run({"--bogus"}), 2);
  EXPECT_NE(err_.str().find("unknown argument"), std::string::npos);
  EXPECT_TRUE(out_.str().empty());

  // There is no engine-thread option: neither the flag nor the sweep axis
  // exists, even on a transit-stub topology.
  EXPECT_EQ(Run({"--scenario", "tiny", "--topology", "transit-stub", "--threads", "2"}), 2);
  EXPECT_NE(err_.str().find("unknown argument: --threads"), std::string::npos) << err_.str();
  EXPECT_EQ(Run({"--scenario", "tiny", "--topology", "transit-stub", "--sweep", "threads=1,2"}),
            2);
  EXPECT_NE(err_.str().find("unknown sweep key 'threads'"), std::string::npos) << err_.str();

  // Transit-stub routes are always composed: there is no route-store switch.
  EXPECT_EQ(Run({"--scenario", "tiny", "--topology", "transit-stub", "--compress-routes", "1"}),
            2);
  EXPECT_NE(err_.str().find("unknown argument: --compress-routes"), std::string::npos)
      << err_.str();
  EXPECT_EQ(Run({"--scenario", "tiny", "--sweep", "compress-routes=0,1"}), 2);
  EXPECT_NE(err_.str().find("unknown sweep key 'compress-routes'"), std::string::npos)
      << err_.str();

  // A deadline past 1e9 s would overflow simulated time (int64 microseconds).
  EXPECT_EQ(Run({"--scenario", "tiny", "--deadline-sec", "1e13"}), 2);
  EXPECT_NE(err_.str().find("--deadline-sec requires a number in (0, 1e9]"), std::string::npos)
      << err_.str();
  // A sweep value fails with the flag's own message.
  err_.str("");
  EXPECT_EQ(Run({"--scenario", "tiny", "--sweep", "deadline-sec=30,1e13"}), 2);
  EXPECT_NE(err_.str().find("--deadline-sec requires a number in (0, 1e9]"), std::string::npos)
      << err_.str();
  EXPECT_TRUE(out_.str().empty());
}

TEST_F(RunnerMainTest, SweepValuesFailLikeTheirFlags) {
  // A --sweep value and a sweep file's `set` value exit 2 with the message of
  // the flag's own row, as the flag does.
  const std::string path = ::testing::TempDir() + "/bullet_runner_set_value.sweep";
  {
    std::ofstream spec(path);
    spec << "scenario tiny\nset block-bytes=1e30\n";
  }
  const std::string block_bytes = "--block-bytes requires an integer >= 512";
  const std::string bad_block_bytes = "bad value '1e30' for sweep axis 'block-bytes': ";
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases = {
      {{"--scenario", "tiny", "--block-bytes", "1e30"}, block_bytes},
      {{"--scenario", "tiny", "--sweep", "block-bytes=1e30"}, bad_block_bytes + block_bytes},
      {{"--scenario", "tiny", "--sweep", "nodes=2e1"},
       "bad value '2e1' for sweep axis 'nodes': --nodes requires an integer in [2, 1000000]"},
      {{"--sweep-file", path.c_str()}, path + ": line 2: " + bad_block_bytes + block_bytes},
  };
  for (const auto& [argv, message] : cases) {
    err_.str("");
    EXPECT_EQ(Run(argv), 2) << message;
    EXPECT_EQ(err_.str().rfind("bullet_run: " + message + "\n", 0), 0u) << err_.str();
  }
  EXPECT_TRUE(out_.str().empty());
  std::remove(path.c_str());
}

TEST_F(RunnerMainTest, UnknownSystemIsUsageError) {
  EXPECT_EQ(Run({"--scenario", "tiny", "--system", "gnutella"}), 2);
  EXPECT_NE(err_.str().find("registered protocol"), std::string::npos);
  EXPECT_TRUE(out_.str().empty());
}

TEST_F(RunnerMainTest, SystemAndJoinFractionEchoInRequestedOptions) {
  const std::string path = ::testing::TempDir() + "/bullet_runner_system_test.json";
  std::remove(path.c_str());
  EXPECT_EQ(Run({"--scenario", "tiny", "--system", "bittorrent", "--join-fraction", "0.5",
                 "--out", path.c_str(), "--quiet"}),
            0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  EXPECT_NE(json.find("\"system\":\"bittorrent\""), std::string::npos);
  EXPECT_NE(json.find("\"join_fraction\":0.5"), std::string::npos);
}

TEST_F(RunnerMainTest, ListWritesOnlyToStdout) {
  EXPECT_EQ(Run({"--list"}), 0);
  EXPECT_TRUE(err_.str().empty());
  EXPECT_FALSE(out_.str().empty());
}

TEST_F(RunnerMainTest, RunWritesJson) {
  const std::string path = ::testing::TempDir() + "/bullet_runner_test.json";
  std::remove(path.c_str());
  EXPECT_EQ(Run({"--scenario", "tiny", "--nodes", "20", "--out", path.c_str(), "--quiet"}), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  EXPECT_NE(json.find("\"schema\":\"bullet-bench-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\":\"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"requested_options\":{\"nodes\":20}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"SystemX\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\":[1,2]"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(RunnerMainTest, SweepModeWritesAggregateAndPerRunFiles) {
  const std::string dir = ::testing::TempDir() + "/bullet_sweep_runner_test";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(Run({"--scenario", "tiny", "--sweep", "nodes=4,8", "--repeats", "2", "--seed",
                 "41", "--sweep-name", "t", "--jobs", "2", "--out-dir", dir.c_str(),
                 "--quiet"}),
            0);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream content;
    content << in.rdbuf();
    return content.str();
  };
  const std::string aggregate = slurp(dir + "/BENCH_sweep_t.json");
  EXPECT_NE(aggregate.find("\"schema\":\"bullet-bench-v3\""), std::string::npos);
  EXPECT_NE(aggregate.find("\"sweep\":\"t\""), std::string::npos);
  EXPECT_NE(aggregate.find("\"nodes\":8"), std::string::npos);
  for (const char* leaf : {"/BENCH_sweep_t_p0_r0.json", "/BENCH_sweep_t_p0_r1.json",
                           "/BENCH_sweep_t_p1_r0.json", "/BENCH_sweep_t_p1_r1.json"}) {
    EXPECT_NE(slurp(dir + leaf).find("\"schema\":\"bullet-bench-v3\""), std::string::npos);
  }

  // Same spec again (different jobs count) must reproduce the aggregate byte for
  // byte — the determinism contract the CI gate relies on.
  const std::string dir2 = dir + "_again";
  std::filesystem::remove_all(dir2);
  EXPECT_EQ(Run({"--scenario", "tiny", "--sweep", "nodes=4,8", "--repeats", "2", "--seed",
                 "41", "--sweep-name", "t", "--jobs", "1", "--out-dir", dir2.c_str(),
                 "--quiet"}),
            0);
  EXPECT_EQ(aggregate, slurp(dir2 + "/BENCH_sweep_t.json"));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST_F(RunnerMainTest, SweepWritesFloorsFileThatRoundTripsThroughBenchCheck) {
  const std::string dir = ::testing::TempDir() + "/bullet_sweep_floors_test";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(Run({"--scenario", "tiny", "--sweep", "nodes=4,8", "--repeats", "2", "--seed",
                 "41", "--sweep-name", "t", "--out-dir", dir.c_str(), "--quiet"}),
            0);

  const auto parse = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream content;
    content << in.rdbuf();
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(ParseJson(content.str(), &doc, &error)) << path << ": " << error;
    return doc;
  };

  // The v3 aggregate round-trips through json_reader and self-gates clean.
  const JsonValue aggregate = parse(dir + "/BENCH_sweep_t.json");
  EXPECT_EQ(aggregate.StringOr("schema", ""), "bullet-bench-v3");
  std::ostringstream log;
  EXPECT_EQ(CompareSweepDocs(aggregate, aggregate, BenchCheckOptions{}, log), kBenchCheckOk);

  // The floors companion parses, carries both gated metrics per point, and a
  // floors baseline compared against itself passes the one-sided gate.
  const JsonValue floors = parse(dir + "/BENCH_sweep_t_floors.json");
  EXPECT_EQ(floors.StringOr("schema", ""), "bullet-floors-v1");
  const JsonValue* points = floors.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array().size(), 2u);
  for (const JsonValue& point : points->array()) {
    const JsonValue* floor_metrics = point.Find("floors");
    ASSERT_NE(floor_metrics, nullptr);
    EXPECT_NE(floor_metrics->Find("events_per_wall_sec"), nullptr);
    EXPECT_NE(floor_metrics->Find("sim_bytes_per_wall_sec"), nullptr);
  }
  std::ostringstream floors_log;
  EXPECT_EQ(CompareSweepDocs(floors, floors, BenchCheckOptions{}, floors_log), kBenchCheckOk);
  std::filesystem::remove_all(dir);
}

TEST_F(RunnerMainTest, ProfileFlagPrintsCounterSummary) {
  const std::string path = ::testing::TempDir() + "/bullet_runner_profile_test.json";
  std::remove(path.c_str());
  EXPECT_EQ(Run({"--scenario", "tiny", "--profile", "--out", path.c_str(), "--quiet"}), 0);
  EXPECT_NE(out_.str().find("### profile"), std::string::npos);
  EXPECT_NE(out_.str().find("events_executed"), std::string::npos);
  if (!PhaseProfiler::kCompiledIn) {
    EXPECT_NE(out_.str().find("rebuild with -DBULLET_PROFILE=ON"), std::string::npos);
  } else {
    EXPECT_NE(out_.str().find("event_dispatch"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(RunnerMainTest, ProfileFlagRejectedInSweepMode) {
  EXPECT_EQ(Run({"--scenario", "tiny", "--profile", "--sweep", "nodes=4,8"}), 2);
  EXPECT_NE(err_.str().find("--profile applies to single runs only"), std::string::npos);
}

TEST_F(RunnerMainTest, SweepDuplicateAxisIsUsageError) {
  EXPECT_EQ(Run({"--scenario", "tiny", "--sweep", "nodes=4,8", "--sweep", "nodes=16"}), 2);
  EXPECT_NE(err_.str().find("duplicate sweep axis 'nodes'"), std::string::npos);
}

TEST_F(RunnerMainTest, SweepUnknownScenarioIsUsageError) {
  EXPECT_EQ(Run({"--scenario", "missing", "--sweep", "nodes=4,8"}), 2);
  EXPECT_NE(err_.str().find("unknown scenario"), std::string::npos);
}

TEST_F(RunnerMainTest, SweepMissingSpecFileIsUsageError) {
  EXPECT_EQ(Run({"--sweep-file", "/nonexistent/sweep.spec"}), 2);
  EXPECT_NE(err_.str().find("cannot read sweep file"), std::string::npos);

  // A readable spec file whose axis names no sweepable option fails the same way.
  const std::string dir = ::testing::TempDir() + "/bullet_runner_removed_axis";
  for (const std::string key : {"threads", "compress-routes"}) {
    const std::string path = ::testing::TempDir() + "/bullet_runner_" + key + "_axis.sweep";
    {
      std::ofstream spec(path);
      spec << "scenario tiny\nsweep " << key << "=0,1\n";
    }
    EXPECT_EQ(Run({"--sweep-file", path.c_str(), "--topology", "transit-stub", "--out-dir",
                   dir.c_str(), "--quiet"}),
              2);
    EXPECT_NE(err_.str().find("unknown sweep key '" + key + "'"), std::string::npos)
        << err_.str();
    std::remove(path.c_str());
  }
  EXPECT_TRUE(out_.str().empty());
  std::filesystem::remove_all(dir);
}

// The options as a run sees them: the requested_options echo plus --loss, the
// one row that is never echoed.
std::string DescribeOptions(const ScenarioOptions& opts) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    if (def.echo != nullptr) {
      def.echo(opts, &json);
    }
  }
  json.EndObject();
  if (opts.loss) {
    os << " loss=" << *opts.loss;
  }
  return os.str();
}

// Every option-table flag given on the command line reaches the runs of a
// sweep as it reaches a single run (--seed as the stream-derivation base). A
// flag the sweep base point forgot would silently run the scenario default.
TEST(RunnerSweepTest, EveryCliOptionReachesTheSweepRuns) {
  // One valid value per row; a new row without a sample fails here.
  const std::map<std::string, std::string> samples = {
      {"nodes", "7"},
      {"file-mb", "0.5"},
      {"seed", "9"},
      {"block-bytes", "4096"},
      {"deadline-sec", "30"},
      {"topology", "transit-stub"},
      {"system", "bittorrent"},
      {"join-fraction", "0.25"},
      {"loss", "0.02"},
      {"lifetime-pareto-alpha", "1.5"},
      {"churn-model", "stub"},
      {"stream-bitrate-mbps", "1.5"},
      {"stream-window-blocks", "4"},
  };
  std::vector<ScenarioOptions> seen;
  ScenarioRegistry registry;
  registry.Register("probe", "records the options it runs with",
                    [&seen](const ScenarioOptions& opts) {
                      seen.push_back(opts);
                      return ScenarioReport("probe");
                    });
  const std::string dir = ::testing::TempDir() + "/bullet_sweep_cli_overlay";
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    SCOPED_TRACE(def.flag);
    const auto sample = samples.find(def.key);
    ASSERT_NE(sample, samples.end()) << "no sample value for " << def.flag;
    ScenarioOptions expected;
    std::string error;
    ASSERT_TRUE(def.parse(sample->second, &expected, &error)) << error;

    seen.clear();
    std::vector<const char*> argv = {"bullet_run", "--scenario", "probe", "--repeats", "1",
                                     "--jobs",     "1",          "--out-dir", dir.c_str(),
                                     "--quiet",    def.flag,     sample->second.c_str()};
    std::ostringstream out;
    std::ostringstream err;
    ASSERT_EQ(RunnerMain(static_cast<int>(argv.size()), argv.data(), registry, out, err), 0)
        << err.str();
    ASSERT_EQ(seen.size(), 1u);
    ScenarioOptions run = seen[0];
    if (expected.seed) {
      EXPECT_EQ(run.seed, DeriveSweepSeed(*expected.seed, 0, 0));
      continue;
    }
    run.seed.reset();  // every sweep run carries its own derived seed
    EXPECT_NE(DescribeOptions(expected), DescribeOptions(ScenarioOptions{}));
    EXPECT_EQ(DescribeOptions(run), DescribeOptions(expected));
  }
  std::filesystem::remove_all(dir);
}

TEST(WriteReportJsonTest, EscapesAndNonFinite) {
  ScenarioReport report("esc");
  report.AddScalar("inf", std::numeric_limits<double>::infinity());
  report.AddSeries("quote\"name", {1.5});

  std::ostringstream os;
  WriteReportJson(os, report, ScenarioOptions{});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
}

}  // namespace
}  // namespace bullet
