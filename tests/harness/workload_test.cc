// Session/workload harness coverage: the table of systems, spec validation,
// factory-vs-table session equivalence (bit for bit), staggered joins, and
// the per-session completion contract — session A completing never stops
// session B.

#include "src/harness/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bullet_prime.h"
#include "src/harness/scenarios.h"
#include "src/harness/workload_gen.h"

namespace bullet {
namespace {

// Small uniform mesh: generous symmetric links keep these runs fast and make
// completion ordering depend on file size, not topology luck.
std::unique_ptr<Topology> SmallUniform(int nodes, uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<MeshTopology>(
      MeshTopology::Uniform(nodes, 10e6, MsToSim(20), 0.0, 0.0, rng));
}

FileParams SmallFile(uint32_t blocks) {
  FileParams file;
  file.block_bytes = 16 * 1024;
  file.num_blocks = blocks;
  return file;
}

TEST(Systems, TableListsTheFourSystemsInKeyOrder) {
  const std::vector<std::string> keys = {"bittorrent", "bullet", "bullet-prime", "splitstream"};
  ASSERT_EQ(std::size(kSystems), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(kSystems[i].key, keys[i]);
    EXPECT_EQ(FindSystem(keys[i]), &kSystems[i]);
  }
  const SystemInfo* bp = FindSystem("bullet-prime");
  EXPECT_STREQ(bp->display_name, "BulletPrime");
  EXPECT_FALSE(bp->encoded_stream);
  EXPECT_TRUE(bp->streams);
  const SystemInfo* legacy = FindSystem("bullet");
  EXPECT_STREQ(legacy->display_name, "Bullet");
  EXPECT_TRUE(legacy->encoded_stream);
  EXPECT_FALSE(legacy->streams);
  const SystemInfo* ss = FindSystem("splitstream");
  EXPECT_TRUE(ss->encoded_stream);
  EXPECT_TRUE(ss->requires_full_span);
  EXPECT_EQ(FindSystem("no-such-protocol"), nullptr);
}

// A session built by a caller-supplied factory and the same session named by
// its kSystems key must produce bitwise-identical completions: the table adds
// no behaviour of its own. The keyed session names its members explicitly
// (dense 0..n-1), which must still be recognized as the all-nodes shape and
// build the same control tree.
TEST(WorkloadExperiment, FactorySessionMatchesRegistrySession) {
  WorkloadParams params;
  params.seed = 5151;
  params.deadline = SecToSim(600.0);
  SessionSpec spec;
  spec.file = SmallFile(24);
  spec.seed = params.seed;

  WorkloadExperiment by_factory(SmallUniform(10, 42), params);
  by_factory.AddSession(spec, [&by_factory, file = spec.file](const Protocol::Context& ctx) {
    return std::make_unique<BulletPrime>(ctx, file, /*source=*/0, &by_factory.session_tree(0),
                                         BulletPrimeConfig{});
  });
  const WorkloadResult factory_result = by_factory.Run();

  WorkloadExperiment by_name(SmallUniform(10, 42), params);
  spec.protocol = "bullet-prime";
  for (NodeId n = 0; n < 10; ++n) {
    spec.members.push_back(n);
  }
  by_name.AddSession(spec);
  const WorkloadResult result = by_name.Run();

  ASSERT_EQ(factory_result.sessions.size(), 1u);
  ASSERT_EQ(result.sessions.size(), 1u);
  const SessionResult& expected = factory_result.sessions[0];
  ASSERT_EQ(result.sessions[0].completion_sec.size(), expected.completion_sec.size());
  for (size_t i = 0; i < expected.completion_sec.size(); ++i) {
    EXPECT_EQ(result.sessions[0].completion_sec[i], expected.completion_sec[i])
        << "receiver " << i;
  }
  EXPECT_EQ(result.sessions[0].completed, expected.completed);
  EXPECT_EQ(result.events_executed, factory_result.events_executed);
  EXPECT_EQ(result.sessions[0].name, "BulletPrime");
}

// The heart of the per-session completion redesign: a fast session finishing
// must leave a slower concurrent session running to its own completion. Under
// the old rule (stop the network at num_nodes()-1 completions) session A's
// finish — or A+B together reaching the global receiver count — would have
// frozen B mid-transfer.
TEST(WorkloadExperiment, SessionACompletingNeverStopsSessionB) {
  WorkloadParams params;
  params.seed = 99;
  params.deadline = SecToSim(3600.0);
  WorkloadExperiment wl(SmallUniform(12, 7), params);

  SessionSpec a;
  a.name = "A";
  a.protocol = "bullet-prime";
  a.file = SmallFile(8);  // small file: finishes first
  a.members = {0, 2, 4, 6, 8, 10};
  a.source = 0;
  wl.AddSession(a);

  SessionSpec b;
  b.name = "B";
  b.protocol = "bullet-prime";
  b.file = SmallFile(64);  // 8x the bytes: still transferring when A is done
  b.members = {1, 3, 5, 7, 9, 11};
  b.source = 1;
  wl.AddSession(b);

  const WorkloadResult result = wl.Run();
  ASSERT_EQ(result.sessions.size(), 2u);
  const SessionResult& ra = result.sessions[0];
  const SessionResult& rb = result.sessions[1];
  // Both sessions ran to full completion.
  EXPECT_EQ(result.sessions_completed, 2);
  EXPECT_EQ(ra.completed, ra.receivers);
  EXPECT_EQ(rb.completed, rb.receivers) << "session B was cut off by session A completing";
  ASSERT_GE(ra.completed_at_sec, 0.0);
  ASSERT_GE(rb.completed_at_sec, 0.0);
  // And A genuinely finished first, so B's completions happened after A ended.
  EXPECT_LT(ra.completed_at_sec, rb.completed_at_sec);
  const double b_max = *std::max_element(rb.completion_sec.begin(), rb.completion_sec.end());
  EXPECT_GT(b_max, ra.completed_at_sec);
}

TEST(WorkloadExperiment, StaggeredJoinersCompleteAfterTheirJoinTime) {
  WorkloadParams params;
  params.seed = 1234;
  params.deadline = SecToSim(3600.0);
  WorkloadExperiment wl(SmallUniform(12, 9), params);

  SessionSpec spec;
  spec.protocol = "bullet-prime";
  spec.file = SmallFile(16);
  const double join_sec = 20.0;
  for (NodeId n = 0; n < 12; ++n) {
    spec.members.push_back(n);
    spec.join_offsets.push_back(n >= 6 ? SecToSim(join_sec) : 0);
  }
  wl.AddSession(spec);
  const WorkloadResult result = wl.Run();

  const SessionResult& r = result.sessions[0];
  EXPECT_EQ(r.completed, r.receivers);
  EXPECT_EQ(wl.session_join_time(0, 3), 0);
  EXPECT_EQ(wl.session_join_time(0, 9), SecToSim(join_sec));
  // completion_sec is member-ordered with the source excluded: entries 5..10
  // are the late cohort (nodes 6..11).
  ASSERT_EQ(r.completion_sec.size(), 11u);
  for (size_t i = 5; i < r.completion_sec.size(); ++i) {
    EXPECT_GT(r.completion_sec[i], join_sec) << "late joiner completed before joining";
    EXPECT_NEAR(r.download_sec[i], r.completion_sec[i] - join_sec, 1e-12);
  }
  // The staged tree only hangs late joiners under parents that joined no later.
  const ControlTree& tree = wl.session_tree(0);
  for (NodeId n = 1; n < 12; ++n) {
    const NodeId p = tree.parent[static_cast<size_t>(n)];
    ASSERT_GE(p, 0);
    EXPECT_LE(wl.session_join_time(0, p), wl.session_join_time(0, n));
  }
}

TEST(WorkloadExperiment, InvalidSpecsDie) {
  WorkloadParams params;
  // Each case sets the spec up outside EXPECT_DEATH (brace-initializers carry
  // commas the macro would split on) and dies inside AddSession.
  {
    WorkloadExperiment wl(SmallUniform(8, 3), params);
    SessionSpec s;
    s.protocol = "no-such-protocol";
    EXPECT_DEATH(wl.AddSession(s), "unknown protocol");
  }
  {
    WorkloadExperiment wl(SmallUniform(8, 3), params);
    SessionSpec s;
    s.members = {1, 2, 3};
    s.source = 0;
    EXPECT_DEATH(wl.AddSession(s), "source must be a session member");
  }
  {
    WorkloadExperiment wl(SmallUniform(8, 3), params);
    SessionSpec a;
    a.members = {0, 1, 2, 3};
    wl.AddSession(a);
    SessionSpec b;
    b.members = {3, 4, 5};
    b.source = 3;
    EXPECT_DEATH(wl.AddSession(b), "disjoint");
  }
  {
    WorkloadExperiment wl(SmallUniform(8, 3), params);
    SessionSpec s;
    s.members = {0, 1, 2};
    s.join_offsets = {0, 0};
    EXPECT_DEATH(wl.AddSession(s), "parallel");
  }
  {
    WorkloadExperiment wl(SmallUniform(8, 3), params);
    SessionSpec s;
    s.members = {0, 1, 2};
    s.join_offsets = {SecToSim(5.0), 0, 0};
    EXPECT_DEATH(wl.AddSession(s), "source must join no later");
  }
  {
    WorkloadExperiment wl(SmallUniform(8, 3), params);
    SessionSpec s;
    s.members = {0};
    EXPECT_DEATH(wl.AddSession(s), "at least one receiver");
  }
}

TEST(WorkloadExperiment, GeneratorSpecsDie) {
  WorkloadParams params;
  {
    // An arrivals generator and an explicit join schedule are two sources of
    // truth for the same thing.
    WorkloadExperiment wl(SmallUniform(8, 3), params);
    SessionSpec s;
    s.members = {0, 1, 2};
    s.join_offsets = {0, 0, 0};
    s.arrivals = std::make_shared<FlashCrowdArrivals>(0.5, SecToSim(10.0));
    EXPECT_DEATH(wl.AddSession(s), "mutually exclusive");
  }
}

TEST(WorkloadExperiment, LifetimeExpiryDepartsReceiversAndStillTerminates) {
  WorkloadParams params;
  params.seed = 77;
  params.deadline = SecToSim(3600.0);
  WorkloadExperiment wl(SmallUniform(8, 3), params);

  SessionSpec spec;
  spec.protocol = "bullet-prime";
  spec.file = SmallFile(64);
  // A 2-second Pareto floor with a heavy tail: most receivers expire long
  // before the transfer can finish, which must not hang the session.
  spec.lifetimes = std::make_shared<ParetoLifetime>(1.2, SecToSim(2.0));
  wl.AddSession(spec);
  const WorkloadResult result = wl.Run();

  const SessionResult& r = result.sessions[0];
  EXPECT_GT(r.departed, 0);
  EXPECT_EQ(r.departed, result.total_departures);
  EXPECT_GT(r.departed_incomplete, 0);
  // Departed-incomplete receivers are credited by the completion policy, so
  // the session closes out (far before the one-hour deadline) instead of
  // waiting forever for receivers that already left.
  EXPECT_GE(r.completed_at_sec, 0.0);
  EXPECT_LT(r.completed_at_sec, 600.0);
  EXPECT_EQ(r.completed + r.departed_incomplete, r.receivers);
}

TEST(WorkloadExperiment, SeederDepartureDrainsCompletedReceivers) {
  WorkloadParams params;
  params.seed = 91;
  params.deadline = SecToSim(3600.0);
  WorkloadExperiment wl(SmallUniform(8, 3), params);

  SessionSpec spec;
  spec.protocol = "bullet-prime";
  spec.file = SmallFile(16);
  // Half the members join 30s late, so the early cohort completes, lingers 1s,
  // and departs while the sim is still running for the late cohort (departure
  // events landing after the last completion never fire — the run is over).
  for (NodeId n = 0; n < 8; ++n) {
    spec.members.push_back(n);
    spec.join_offsets.push_back(n >= 4 ? SecToSim(30.0) : 0);
  }
  // A minimum stay past the deadline: no lifetime expires during the run, so
  // only completion departs a member.
  spec.lifetimes = std::make_shared<ParetoLifetime>(1.5, 2 * params.deadline,
                                                    /*depart_after_completion=*/true,
                                                    /*linger=*/SecToSim(1.0));
  wl.AddSession(spec);
  const WorkloadResult result = wl.Run();

  const SessionResult& r = result.sessions[0];
  // Everyone completes (no lifetime expires first); the early cohort
  // additionally departs after its linger.
  EXPECT_EQ(r.completed, r.receivers);
  EXPECT_GE(r.departed, 3);
  EXPECT_EQ(r.departed_incomplete, 0);
}

TEST(WorkloadExperiment, ChurnModelDeparturesAreRecorded) {
  WorkloadParams params;
  params.seed = 55;
  params.deadline = SecToSim(3600.0);
  WorkloadExperiment wl(SmallUniform(10, 3), params);

  SessionSpec spec;
  spec.protocol = "bullet-prime";
  spec.file = SmallFile(64);
  wl.AddSession(spec);
  // Kills packed into the first two sim-seconds, well inside the transfer.
  wl.SetChurnModel(std::make_shared<LeafFailureChurn>(3, SecToSim(0.5), SecToSim(0.5)));
  const WorkloadResult result = wl.Run();

  ASSERT_EQ(result.churn_events.size(), 3u);
  for (const ChurnEvent& ev : result.churn_events) {
    EXPECT_NE(ev.node, 0);  // churn models never kill a source
    EXPECT_GT(ev.at, 0);
  }
  EXPECT_EQ(result.sessions[0].departed, 3);
  EXPECT_EQ(result.total_departures, 3);
  EXPECT_EQ(result.sessions[0].completed + result.sessions[0].departed_incomplete,
            result.sessions[0].receivers);
}

// Encoded-stream methodology comes from the system's kSystems row.
TEST(RunScenarioByName, EncodedStreamFollowsRegistryEntry) {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kUniform;
  cfg.num_nodes = 6;
  cfg.file_mb = 0.25;
  cfg.seed = 707;
  cfg.deadline = SecToSim(1200.0);

  const SessionResult legacy_bullet = RunScenario("bullet", cfg).sessions.front();
  EXPECT_EQ(legacy_bullet.name, "Bullet");
  EXPECT_EQ(legacy_bullet.completed, legacy_bullet.receivers);
}

// The file-size rule truncates to whole blocks but never to zero: a zero-block
// file would leave every receiver waiting for the deadline.
TEST(RunScenarioByName, SubBlockFileRunsOneBlock) {
  EXPECT_EQ(FileBlocks(1.0, 16 * 1024), 64u);
  EXPECT_EQ(FileBlocks(1.01, 16 * 1024), 64u);
  EXPECT_EQ(FileBlocks(0.001, 16 * 1024), 1u);

  ScenarioConfig cfg;
  cfg.num_nodes = 6;
  cfg.file_mb = 0.001;
  cfg.loss_max = 0.0;
  cfg.seed = 708;
  const SessionResult r = RunScenario("bullet-prime", cfg).sessions.front();
  EXPECT_EQ(r.completed, r.receivers);
  ASSERT_FALSE(r.completion_sec.empty());
  EXPECT_LT(*std::max_element(r.completion_sec.begin(), r.completion_sec.end()), 60.0);
}

// The stream flags reach only systems that stream: under cfg.streaming a
// legacy Bullet session is added in bulk mode, a Bullet' session streams.
TEST(BuildScenarioExperiment, StreamingSkipsSystemsWithoutAStreamingMode) {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kUniform;
  cfg.num_nodes = 8;
  cfg.file_mb = 0.25;
  cfg.streaming = StreamingSpec{};
  WorkloadSpec workload;
  SessionSpec legacy;
  legacy.protocol = "bullet";
  legacy.members = {0, 2, 4, 6};
  legacy.source = 0;
  workload.sessions.push_back(legacy);
  SessionSpec prime;
  prime.protocol = "bullet-prime";
  prime.members = {1, 3, 5, 7};
  prime.source = 1;
  workload.sessions.push_back(prime);

  const std::unique_ptr<WorkloadExperiment> exp = BuildScenarioExperiment(cfg, workload);
  EXPECT_FALSE(exp->session_spec(0).streaming.has_value());
  EXPECT_TRUE(exp->session_spec(1).streaming.has_value());
}

}  // namespace
}  // namespace bullet
