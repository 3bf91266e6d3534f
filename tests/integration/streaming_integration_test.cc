// End-to-end playback-deadline (streaming) coverage: live protocols driving
// the sliding request window to completion, late joiners catching up from the
// live edge, the stall/missed-deadline series in SessionResult, the departed-
// incomplete CDF exclusion, and SplitStream's stripe-forest repair.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/baselines/splitstream.h"
#include "src/baselines/stripe_forest.h"
#include "src/harness/workload.h"
#include "src/harness/workload_gen.h"

namespace bullet {
namespace {

std::unique_ptr<Topology> SmallUniform(int nodes, uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<MeshTopology>(
      MeshTopology::Uniform(nodes, 10e6, MsToSim(20), 0.0, 0.0, rng));
}

FileParams SmallFile(uint32_t blocks, bool encoded = false) {
  FileParams file;
  file.block_bytes = 16 * 1024;
  file.num_blocks = blocks;
  file.encoded = encoded;
  return file;
}

StreamingSpec TestStream(int window = 32) {
  StreamingSpec s;
  s.bitrate_mbps = 2.0;
  s.window_blocks = window;
  s.startup_buffer_sec = 2.0;
  return s;
}

SessionResult RunStreamingSession(const std::string& protocol, int nodes, uint32_t blocks,
                                  uint64_t seed, const StreamingSpec& stream,
                                  bool encoded = false) {
  WorkloadParams params;
  params.seed = seed;
  params.deadline = SecToSim(900.0);
  WorkloadExperiment exp(SmallUniform(nodes, seed), params);
  SessionSpec spec;
  spec.protocol = protocol;
  spec.file = SmallFile(blocks, encoded);
  spec.streaming = stream;
  exp.AddSession(spec);
  return exp.Run().sessions.front();
}

TEST(Streaming, BulletPrimeStreamsToCompletionWithStallSeries) {
  const SessionResult r = RunStreamingSession("bullet-prime", 12, 160, 901, TestStream());
  EXPECT_EQ(r.completed, 11);
  ASSERT_EQ(r.completion_sec.size(), 11u);
  // The stall/missed series parallel the completion series in streaming mode.
  ASSERT_EQ(r.stall_sec.size(), 11u);
  ASSERT_EQ(r.missed_deadline.size(), 11u);
  EXPECT_EQ(r.playback_finished, 11);
  for (const double stall : r.stall_sec) {
    EXPECT_GE(stall, 0.0);
  }
  // A 160-block stream at 2 Mbps lasts ~10.5 s; a completion reported far
  // earlier would mean the source ignored the release pacing.
  for (const double done : r.completion_sec) {
    EXPECT_GT(done, 10.0);
  }
}

TEST(Streaming, BitTorrentHonorsTheSlidingWindow) {
  const SessionResult r = RunStreamingSession("bittorrent", 12, 160, 902, TestStream());
  EXPECT_EQ(r.completed, 11);
  ASSERT_EQ(r.stall_sec.size(), 11u);
  for (const double done : r.completion_sec) {
    EXPECT_GT(done, 10.0) << "completed before the stream finished releasing";
  }
}

TEST(Streaming, SplitStreamPacedSourceCompletesPositions) {
  const SessionResult r =
      RunStreamingSession("splitstream", 12, 160, 903, TestStream(), /*encoded=*/true);
  EXPECT_EQ(r.completed, 11);
  ASSERT_EQ(r.stall_sec.size(), 11u);
  for (const double done : r.completion_sec) {
    EXPECT_GT(done, 10.0);
  }
}

// The released Bullet has no streaming mode: a streaming session of it would
// report every receiver stalled until the deadline, so AddSession refuses it.
TEST(Streaming, BulletSessionWithStreamingDies) {
  EXPECT_DEATH(RunStreamingSession("bullet", 10, 32, 907, TestStream(16), /*encoded=*/true),
               "no streaming mode");
}

TEST(Streaming, LateJoinersCatchUpFromTheLiveEdge) {
  WorkloadParams params;
  params.seed = 904;
  params.deadline = SecToSim(900.0);
  WorkloadExperiment exp(SmallUniform(10, 904), params);
  SessionSpec spec;
  spec.protocol = "bullet-prime";
  spec.file = SmallFile(160);
  spec.streaming = TestStream();
  // The last two members tune in mid-stream (160 blocks * ~65.5 ms = ~10.5 s).
  spec.join_offsets.assign(10, 0);
  spec.join_offsets[8] = SecToSim(5.0);
  spec.join_offsets[9] = SecToSim(7.0);
  exp.AddSession(spec);
  const SessionResult r = exp.Run().sessions.front();
  // Live-edge catch-up: late joiners skip the positions already played, so
  // they still complete (and their playback can finish) inside the deadline.
  EXPECT_EQ(r.completed, 9);
  EXPECT_EQ(r.playback_finished, 9);
}

TEST(Streaming, DepartedIncompleteReceiversAreExcludedFromTheCdf) {
  // Bulk-mode churn session: lifetimes short enough that several receivers
  // depart mid-download. The departed-incomplete members must not appear in
  // the completion/download series (pre-fix they reported the run deadline,
  // skewing every churn CDF tail).
  WorkloadParams params;
  params.seed = 905;
  params.deadline = SecToSim(600.0);
  WorkloadExperiment exp(SmallUniform(16, 905), params);
  SessionSpec spec;
  spec.protocol = "bullet-prime";
  spec.file = SmallFile(640);  // 10 MB: long enough that short stays expire
  spec.lifetimes = std::make_shared<ParetoLifetime>(
      /*alpha=*/1.1, /*xm=*/SecToSim(5.0), /*depart_after_completion=*/true,
      /*linger=*/SecToSim(10.0));
  exp.AddSession(spec);
  const SessionResult r = exp.Run().sessions.front();
  ASSERT_GT(r.departed_incomplete, 0) << "test needs mid-download departures to bite";
  EXPECT_EQ(r.completion_sec.size(),
            static_cast<size_t>(r.receivers - r.departed_incomplete));
  EXPECT_EQ(r.download_sec.size(), r.completion_sec.size());
  const double deadline_sec = SimToSec(params.deadline);
  for (const double done : r.completion_sec) {
    EXPECT_LT(done, deadline_sec) << "a departed receiver leaked into the series";
  }
}

TEST(Streaming, SplitStreamRepairsOrphanedStripes) {
  // Fail a stripe-interior node mid-run: its children must regraft onto a
  // surviving ancestor (pre-fix they stayed orphaned and fig21-style churn
  // runs completed 0 sessions) and every survivor must still finish.
  const int kNodes = 16;
  const uint64_t kSeed = 906;
  WorkloadParams params;
  params.seed = kSeed;
  params.deadline = SecToSim(900.0);
  SessionSpec session;
  session.seed = kSeed;
  session.file = SmallFile(320, /*encoded=*/true);
  Rng topo_rng(kSeed);
  WorkloadExperiment exp(MeshTopology::Uniform(kNodes, 10e6, MsToSim(20), 0.0, 0.0, topo_rng),
                         params);
  Rng forest_rng(kSeed);
  const StripeForest forest = StripeForest::Build(kNodes, 8, 0, forest_rng);

  // Pick a victim that is a non-source parent in some stripe, plus one of its
  // children there (deterministic given the seed).
  NodeId victim = -1;
  NodeId child = -1;
  int stripe = -1;
  for (int s = 0; s < 8 && victim < 0; ++s) {
    for (NodeId n = 0; n < kNodes; ++n) {
      const NodeId p = forest.trees[static_cast<size_t>(s)].parent[static_cast<size_t>(n)];
      if (p > 0) {
        victim = p;
        child = n;
        stripe = s;
        break;
      }
    }
  }
  ASSERT_GE(victim, 0) << "forest has no non-source interior parents";

  std::map<NodeId, SplitStream*> instances;
  exp.AddSession(session, [&](const Protocol::Context& ctx) {
    auto p = std::make_unique<SplitStream>(ctx, session.file, session.source, &forest);
    instances[ctx.self] = p.get();
    return p;
  });
  exp.net().queue().Schedule(SecToSim(1.0), [&] { exp.net().FailNode(victim); });
  exp.Run();
  const RunMetrics& metrics = exp.session_metrics(0);

  // The protocol instances outlive Run; the repaired parent pointer persists.
  ASSERT_TRUE(exp.net().IsNodeFailed(victim)) << "run ended before the scheduled failure";
  const NodeId repaired_parent = instances.at(child)->stripe_parent(stripe);
  EXPECT_NE(repaired_parent, victim) << "orphaned stripe never reparented";
  EXPECT_GE(repaired_parent, 0);
  EXPECT_FALSE(exp.net().IsNodeFailed(repaired_parent)) << "regrafted onto a dead ancestor";
  int survivors_done = 0;
  for (NodeId n = 1; n < kNodes; ++n) {
    if (n != victim && metrics.node(n).completion >= 0) {
      ++survivors_done;
    }
  }
  EXPECT_EQ(survivors_done, kNodes - 2) << "a survivor starved after the stripe failure";
}

}  // namespace
}  // namespace bullet
