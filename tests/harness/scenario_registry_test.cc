#include "src/harness/scenario_registry.h"

#include <gtest/gtest.h>

namespace bullet {
namespace {

ScenarioReport MakeReport(const ScenarioOptions& opts) {
  ScenarioReport report("dummy");
  report.AddScalar("nodes", opts.nodes.value_or(-1));
  report.AddSeries("samples", {1.0, 2.0, 3.0});
  return report;
}

TEST(ScenarioRegistryTest, RegisterFindRun) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Register("dummy", "a test scenario", MakeReport));
  ASSERT_EQ(registry.size(), 1u);

  const ScenarioRegistry::Entry* entry = registry.Find("dummy");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "dummy");
  EXPECT_EQ(entry->description, "a test scenario");

  ScenarioOptions opts;
  opts.nodes = 20;
  const ScenarioReport report = entry->fn(opts);
  EXPECT_EQ(report.scenario(), "dummy");
  ASSERT_EQ(report.scalars().size(), 1u);
  EXPECT_EQ(report.scalars()[0].first, "nodes");
  EXPECT_DOUBLE_EQ(report.scalars()[0].second, 20.0);
  ASSERT_EQ(report.series().size(), 1u);
  EXPECT_EQ(report.series()[0].samples.size(), 3u);
}

TEST(ScenarioRegistryTest, RejectsDuplicateName) {
  ScenarioRegistry registry;
  ASSERT_TRUE(registry.Register("dummy", "first", MakeReport));
  EXPECT_FALSE(registry.Register("dummy", "second", MakeReport));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Find("dummy")->description, "first");
}

TEST(ScenarioRegistryTest, UnknownNameReturnsNull) {
  ScenarioRegistry registry;
  registry.Register("dummy", "a test scenario", MakeReport);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_EQ(registry.Find(""), nullptr);
}

TEST(ScenarioRegistryTest, ListIsSortedByName) {
  ScenarioRegistry registry;
  registry.Register("zeta", "", MakeReport);
  registry.Register("alpha", "", MakeReport);
  registry.Register("mid", "", MakeReport);
  const auto list = registry.List();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0]->name, "alpha");
  EXPECT_EQ(list[1]->name, "mid");
  EXPECT_EQ(list[2]->name, "zeta");
}

TEST(ScenarioRegistryTest, ApplyScenarioOptionsOverridesOnlySetFields) {
  ScenarioConfig cfg;
  cfg.num_nodes = 100;
  cfg.file_mb = 50.0;
  cfg.seed = 7;

  ScenarioOptions opts;
  opts.nodes = 20;
  opts.deadline_sec = 123.0;
  ApplyScenarioOptions(opts, &cfg);

  EXPECT_EQ(cfg.num_nodes, 20);
  EXPECT_DOUBLE_EQ(cfg.file_mb, 50.0);   // untouched
  EXPECT_EQ(cfg.seed, 7u);               // untouched
  EXPECT_EQ(cfg.deadline, SecToSim(123.0));
}

TEST(ScenarioReportTest, AddCompletionAttachesStandardMetrics) {
  WorkloadResult run;
  SessionResult& result = run.sessions.emplace_back();
  result.name = "SystemX";
  result.completion_sec = {1.0, 2.0, 4.0};
  result.duplicate_fraction = 0.125;
  result.control_overhead = 0.01;
  result.completed = 3;
  result.receivers = 3;

  ScenarioReport report("t");
  report.AddCompletion(run);
  ASSERT_EQ(report.series().size(), 1u);
  const SeriesReport& s = report.series()[0];
  EXPECT_EQ(s.name, "SystemX");
  ASSERT_EQ(s.metrics.size(), 7u);
  EXPECT_EQ(s.metrics[0].first, "dup_pct");
  EXPECT_DOUBLE_EQ(s.metrics[0].second, 12.5);
  EXPECT_EQ(s.metrics[4].first, "net_events_executed");
  EXPECT_EQ(s.metrics[5].first, "net_allocator_epochs");
  EXPECT_EQ(s.metrics[6].first, "net_sim_bytes_sent");
}

}  // namespace
}  // namespace bullet
