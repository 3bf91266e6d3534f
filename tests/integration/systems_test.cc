// Cross-system integration tests asserting the paper's qualitative results at a
// scale small enough for CI: completion everywhere, bounded waste, and the headline
// orderings (Bullet' fastest; SplitStream's tree tail slowest).

#include <gtest/gtest.h>

#include <string>

#include "src/common/stats.h"
#include "src/core/bullet_prime.h"
#include "src/harness/scenarios.h"

namespace bullet {
namespace {

// The one session of a RunScenario run.
SessionResult RunSession(const std::string& protocol, const ScenarioConfig& cfg,
                         const BulletPrimeConfig& bp = BulletPrimeConfig{}) {
  return RunScenario(protocol, cfg, bp).sessions.front();
}

ScenarioConfig MediumScenario(bool dynamic) {
  ScenarioConfig cfg;
  cfg.num_nodes = 40;
  // Large enough that transfer rate, not overlay formation, separates the systems
  // (below ~15 MB every mesh system tracks the source-injection frontier equally).
  cfg.file_mb = 20.0;
  cfg.dynamic_bw = dynamic;
  cfg.seed = 91;
  cfg.deadline = SecToSim(1800.0);
  return cfg;
}

TEST(Systems, AllCompleteOnPaperTopology) {
  const ScenarioConfig cfg = MediumScenario(false);
  for (const char* system : {"bullet-prime", "bullet", "bittorrent", "splitstream"}) {
    const SessionResult r = RunSession(system, cfg);
    EXPECT_EQ(r.completed, r.receivers) << r.name;
    EXPECT_LT(r.duplicate_fraction, 0.05) << r.name;
    EXPECT_LT(r.control_overhead, 0.05) << r.name;
  }
}

TEST(Systems, BulletPrimeBeatsBaselinesStatic) {
  const ScenarioConfig cfg = MediumScenario(false);
  const double bp = Percentile(RunSession("bullet-prime", cfg).completion_sec, 0.5);
  const double bullet = Percentile(RunSession("bullet", cfg).completion_sec, 0.5);
  const double bt = Percentile(RunSession("bittorrent", cfg).completion_sec, 0.5);
  const double ss = Percentile(RunSession("splitstream", cfg).completion_sec, 0.5);
  // Fig. 4's ordering. CI scale shrinks margins; the BP-vs-SplitStream gap needs a
  // longer transfer to open up (SplitStreamSlowestAtScale covers it), so allow a
  // near-tie there.
  EXPECT_LT(bp, bullet);
  EXPECT_LT(bp, bt);
  EXPECT_LT(bp, ss * 1.1);
}

TEST(Systems, SplitStreamSlowestAtScale) {
  // The tree-delivery penalty (Fig. 4's rightmost CDF) needs a transfer long enough
  // that streaming rate, not startup, dominates; use the Fig. 4 topology with a
  // 20 MB file. At full paper scale the gap widens to ~2x (see EXPERIMENTS.md).
  ScenarioConfig cfg;
  cfg.num_nodes = 100;
  cfg.file_mb = 40.0;
  cfg.seed = 401;
  cfg.deadline = SecToSim(3600.0);
  const auto bp = RunSession("bullet-prime", cfg).completion_sec;
  const auto ss = RunSession("splitstream", cfg).completion_sec;
  EXPECT_GT(Percentile(ss, 0.5), Percentile(bp, 0.5) * 1.2);
  EXPECT_GT(Percentile(ss, 1.0), Percentile(bp, 1.0) * 1.1);
}

TEST(Systems, DynamicConditionsHurtBitTorrentMoreThanBulletPrime) {
  const ScenarioConfig stat = MediumScenario(false);
  const ScenarioConfig dyn = MediumScenario(true);
  const double bp_static = Percentile(RunSession("bullet-prime", stat).completion_sec, 0.9);
  const double bp_dyn = Percentile(RunSession("bullet-prime", dyn).completion_sec, 0.9);
  const double bt_static = Percentile(RunSession("bittorrent", stat).completion_sec, 0.9);
  const double bt_dyn = Percentile(RunSession("bittorrent", dyn).completion_sec, 0.9);
  const double bp_hit = bp_dyn / bp_static;
  const double bt_hit = bt_dyn / bt_static;
  EXPECT_LT(bp_hit, bt_hit + 0.10);  // Bullet' absorbs the changes at least as well
}

TEST(Systems, EncodedBulletPrimeCompletes) {
  ScenarioConfig cfg = MediumScenario(false);
  cfg.num_nodes = 20;
  cfg.file_mb = 4.0;
  WorkloadSpec workload;
  SessionSpec session;
  session.seed = cfg.seed;
  session.file.encoded = true;
  workload.sessions.push_back(session);
  const SessionResult r = BuildScenarioExperiment(cfg, workload)->Run().sessions.front();
  EXPECT_EQ(r.completed, r.receivers);
}

TEST(Systems, WideAreaScenarioRuns) {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kWideArea;
  cfg.num_nodes = 25;
  cfg.file_mb = 5.0;
  cfg.block_bytes = 100 * 1024;  // the PlanetLab experiment's block size
  cfg.seed = 92;
  cfg.deadline = SecToSim(1800.0);
  const SessionResult r = RunSession("bullet-prime", cfg);
  EXPECT_EQ(r.completed, r.receivers);
}

TEST(Systems, ConstrainedAccessScenarioRuns) {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kConstrained;
  cfg.num_nodes = 30;
  cfg.file_mb = 2.0;
  cfg.seed = 93;
  cfg.deadline = SecToSim(1800.0);
  const SessionResult r = RunSession("bullet-prime", cfg);
  EXPECT_EQ(r.completed, r.receivers);
}

TEST(BulletPrimeBehaviour, StaticPeerSetsStayFixed) {
  ScenarioConfig cfg = MediumScenario(false);
  cfg.num_nodes = 25;
  cfg.file_mb = 4.0;
  BulletPrimeConfig bp;
  bp.dynamic_peer_sets = false;
  bp.initial_senders = 6;
  bp.initial_receivers = 6;
  const SessionResult r = RunSession("bullet-prime", cfg, bp);
  EXPECT_EQ(r.completed, r.receivers);
}

TEST(BulletPrimeBehaviour, DynamicOutstandingBeatsTinyFixedWindowOnFatPipes) {
  // Fig. 10's essence: on 10 Mbps / 100 ms links, 3 outstanding 16 KB blocks cannot
  // fill the BDP; the dynamic controller must.
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kUniform;
  cfg.num_nodes = 15;
  cfg.file_mb = 48.0;  // long enough that the transfer dominates mesh formation
  cfg.loss_max = 0.0;  // Fig. 10 runs without loss: windows, not Mathis, must bind
  cfg.seed = 94;
  cfg.deadline = SecToSim(1800.0);

  BulletPrimeConfig fixed3;
  fixed3.dynamic_outstanding = false;
  fixed3.fixed_outstanding = 3;
  BulletPrimeConfig dynamic;

  const double t_fixed =
      Percentile(RunSession("bullet-prime", cfg, fixed3).completion_sec, 0.5);
  const double t_dyn =
      Percentile(RunSession("bullet-prime", cfg, dynamic).completion_sec, 0.5);
  EXPECT_LT(t_dyn, t_fixed * 0.8);
}

}  // namespace
}  // namespace bullet
