// The stream flags reach every scenario that applies ApplyScenarioOptions,
// including the ones that keep their experiment to read per-node state after
// the run (fig13, fig22, churn_resilience), which BuildScenarioExperiment
// builds, and the fixed-topology fig12 and fig16, which take their session's
// StreamingSpec from the config: --stream-window-blocks turns each bulk
// session into a streaming one and the BENCH json changes. This executable
// compiles in those five scenario registrations and drives them through
// RunnerMain; it also checks the churn_resilience series names.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/json_reader.h"
#include "src/harness/scenario_runner.h"

namespace bullet {
namespace {

// Runs `scenario` at a small size through the runner and returns its BENCH
// json, or an empty string when the run fails. `tag` keeps the output paths of
// tests that ctest may run at the same time apart.
std::string RunJson(const std::string& tag, const std::string& scenario,
                    const std::vector<std::string>& extra) {
  const std::string path = ::testing::TempDir() + "/bullet_" + tag + "_" + scenario + ".json";
  std::vector<std::string> args = {"bullet_run", "--scenario", scenario, "--nodes", "10",
                                   "--file-mb",  "1",          "--out",  path, "--quiet"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<const char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  std::ostringstream out;
  std::ostringstream err;
  if (RunnerMain(static_cast<int>(argv.size()), argv.data(), ScenarioRegistry::Global(), out,
                 err) != 0) {
    ADD_FAILURE() << scenario << ": " << err.str();
    return "";
  }
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  return json.str();
}

// What the BENCH json reports: the scalars and series (requested_options,
// which echoes the flags, is cut off).
std::string RunReport(const std::string& scenario, const std::vector<std::string>& extra) {
  const std::string json = RunJson("stream_flags", scenario, extra);
  const size_t scalars = json.find("\"scalars\":");
  EXPECT_NE(scalars, std::string::npos) << json;
  return scalars == std::string::npos ? "" : json.substr(scalars);
}

class StreamFlagsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamFlagsTest, StreamWindowChangesTheReport) {
  const std::string bulk = RunReport(GetParam(), {});
  const std::string streamed = RunReport(GetParam(), {"--stream-window-blocks", "4"});
  ASSERT_FALSE(bulk.empty());
  ASSERT_FALSE(streamed.empty());
  EXPECT_NE(bulk, streamed);
}

INSTANTIATE_TEST_SUITE_P(HandBuiltScenarios, StreamFlagsTest,
                         ::testing::Values("fig12_outstanding_cascade",
                                           "fig13_interarrival_encoding",
                                           "fig16_shared_bottleneck",
                                           "fig22_correlated_failures", "churn_resilience"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// churn_resilience names each series after the victims that died. At 10 nodes
// the control tree has fewer leaves than the 10 and 25 requested, so those
// series say how many were requested, which also keeps the names apart.
TEST(ChurnResilience, SeriesNameTheFailuresThatRan) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(RunJson("churn_names", "churn_resilience", {}), &doc, &error)) << error;
  const JsonValue* series = doc.Find("series");
  ASSERT_NE(series, nullptr);
  const std::regex pattern(R"(\w+ survivors, (\d+) failures(?: \((\d+) requested\))?)");
  std::set<std::string> names;
  int capped = 0;
  for (const JsonValue& s : series->array()) {
    const std::string name = s.StringOr("name", "");
    std::smatch m;
    ASSERT_TRUE(std::regex_match(name, m, pattern)) << name;
    const int ran = std::stoi(m[1].str());
    // 9 receivers, and every one that did not fail is a survivor.
    EXPECT_EQ(ran, 9 - static_cast<int>(s.Find("count")->number())) << name;
    if (m[2].matched) {
      EXPECT_GT(std::stoi(m[2].str()), ran) << name;
      ++capped;
    }
    EXPECT_TRUE(names.insert(name).second) << "duplicate series name: " << name;
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(capped, 3);
}

}  // namespace
}  // namespace bullet
