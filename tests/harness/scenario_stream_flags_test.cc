// The stream flags reach every scenario that applies ApplyScenarioOptions,
// including the ones that keep their experiment to read per-node state after
// the run (fig13, fig22, churn_resilience): each is built by
// BuildScenarioExperiment, so --stream-window-blocks turns its bulk session
// into a streaming one and the BENCH json changes. This executable compiles
// in those three scenario registrations and drives them through RunnerMain.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/scenario_runner.h"

namespace bullet {
namespace {

// Runs `scenario` at a small size through the runner and returns what its
// BENCH json reports (the scalars and series; requested_options, which echoes
// the flags, is cut off), or an empty string when the run fails.
std::string RunReport(const std::string& scenario, const std::vector<std::string>& extra) {
  const std::string path = ::testing::TempDir() + "/bullet_stream_flags_" + scenario + ".json";
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
  const size_t scalars = json.str().find("\"scalars\":");
  EXPECT_NE(scalars, std::string::npos) << json.str();
  return scalars == std::string::npos ? "" : json.str().substr(scalars);
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
                         ::testing::Values("fig13_interarrival_encoding",
                                           "fig22_correlated_failures", "churn_resilience"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace bullet
