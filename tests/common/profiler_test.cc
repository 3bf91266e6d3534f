// Tests for the per-run profile (src/common/profiler.h): install and
// accumulate semantics of its always-on run counters, per-phase totals, and —
// crucially — that profiling never perturbs simulation results. The
// determinism assertions run in every build; the macro-liveness assertions
// branch on PhaseProfiler::kCompiledIn so one test source covers both the
// default and the -DBULLET_PROFILE=ON CI configurations.

#include "src/common/profiler.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/harness/scenarios.h"

namespace bullet {
namespace {

// The run counters live in the installed profile: an install nests and
// restores the previous one, and is visible only on its own thread.
TEST(RunCountersTest, SwapInstallsAndRestores) {
  EXPECT_EQ(PhaseProfiler::Current(), nullptr);
  PhaseProfiler outer;
  {
    ScopedProfilerInstall install(&outer);
    EXPECT_EQ(PhaseProfiler::Current(), &outer);
    PhaseProfiler inner;
    {
      ScopedProfilerInstall nested(&inner);
      EXPECT_EQ(PhaseProfiler::Current(), &inner);
    }
    EXPECT_EQ(PhaseProfiler::Current(), &outer);
  }
  EXPECT_EQ(PhaseProfiler::Current(), nullptr);
}

TEST(RunCountersTest, InstallIsThreadLocal) {
  PhaseProfiler mine;
  ScopedProfilerInstall install(&mine);
  PhaseProfiler* seen_in_thread = &mine;
  std::thread([&seen_in_thread] { seen_in_thread = PhaseProfiler::Current(); }).join();
  EXPECT_EQ(seen_in_thread, nullptr);
  EXPECT_EQ(PhaseProfiler::Current(), &mine);
}

TEST(PhaseProfilerTest, PhaseNamesAreUniqueJsonKeys) {
  for (int p = 0; p < kProfilePhaseCount; ++p) {
    const char* name = ProfilePhaseName(static_cast<ProfilePhase>(p));
    EXPECT_STRNE(name, "unknown");
    for (int q = p + 1; q < kProfilePhaseCount; ++q) {
      EXPECT_STRNE(name, ProfilePhaseName(static_cast<ProfilePhase>(q)));
    }
  }
}

TEST(PhaseProfilerTest, AddTotals) {
  PhaseProfiler profiler;
  EXPECT_EQ(profiler.total_count(), 0u);
  profiler.AddCount(ProfilePhase::kEventSchedule, 3);
  profiler.AddTimed(ProfilePhase::kEventDispatch, 250);
  EXPECT_EQ(profiler.totals(ProfilePhase::kEventSchedule).count, 3u);
  EXPECT_EQ(profiler.totals(ProfilePhase::kEventDispatch).count, 1u);
  EXPECT_EQ(profiler.totals(ProfilePhase::kEventDispatch).ns, 250u);
  EXPECT_EQ(profiler.total_count(), 4u);
  // The run counters add up on their own and are not phase counts.
  profiler.AddRunTotals(10, 2, 300);
  profiler.AddRunTotals(5, 1, 100);
  EXPECT_EQ(profiler.events_executed(), 15u);
  EXPECT_EQ(profiler.allocator_epochs(), 3u);
  EXPECT_EQ(profiler.sim_bytes_sent(), 400u);
  EXPECT_EQ(profiler.total_count(), 4u);
}

ScenarioConfig TinyConfig() {
  ScenarioConfig cfg;
  cfg.num_nodes = 8;
  cfg.file_mb = 0.25;
  cfg.seed = 7;
  return cfg;
}

// One small scenario, two ways: bare, and with a profile installed. Both must
// produce identical results (the determinism contract in profiler.h), and the
// profile's run counters must match the network totals the scenario reports.
TEST(ProfilerDeterminismTest, InstrumentationDoesNotPerturbResults) {
  const ScenarioConfig cfg = TinyConfig();
  const WorkloadResult bare = RunScenario("bullet-prime", cfg);

  PhaseProfiler profiler;
  WorkloadResult instrumented;
  {
    ScopedProfilerInstall install_profiler(&profiler);
    instrumented = RunScenario("bullet-prime", cfg);
  }

  const SessionResult& bare_session = bare.sessions.front();
  const SessionResult& instrumented_session = instrumented.sessions.front();
  EXPECT_EQ(bare_session.completion_sec, instrumented_session.completion_sec);
  EXPECT_EQ(bare_session.download_sec, instrumented_session.download_sec);
  EXPECT_EQ(bare_session.duplicate_fraction, instrumented_session.duplicate_fraction);
  EXPECT_EQ(bare_session.control_overhead, instrumented_session.control_overhead);
  EXPECT_EQ(bare_session.completed, instrumented_session.completed);
  EXPECT_EQ(bare.events_executed, instrumented.events_executed);
  EXPECT_EQ(bare.allocator_epochs, instrumented.allocator_epochs);
  EXPECT_EQ(bare.sim_bytes_sent, instrumented.sim_bytes_sent);

  // The installed profile saw exactly what the network published.
  EXPECT_EQ(profiler.events_executed(), instrumented.events_executed);
  EXPECT_EQ(profiler.allocator_epochs(), instrumented.allocator_epochs);
  EXPECT_EQ(profiler.sim_bytes_sent(), instrumented.sim_bytes_sent);
  EXPECT_GT(profiler.events_executed(), 0u);
  EXPECT_GT(profiler.allocator_epochs(), 0u);
  EXPECT_GT(profiler.sim_bytes_sent(), 0u);
}

// The BULLET_PROFILE_* macros are live exactly in profiled builds: a real run
// records per-phase data iff kCompiledIn. Keeps the flag wiring honest in both
// CI configurations without duplicating the test source.
TEST(ProfilerDeterminismTest, PhaseRecordingMatchesBuildFlag) {
  PhaseProfiler profiler;
  {
    ScopedProfilerInstall install(&profiler);
    (void)RunScenario("bullet-prime", TinyConfig());
  }
  if (PhaseProfiler::kCompiledIn) {
    EXPECT_GT(profiler.totals(ProfilePhase::kEventDispatch).count, 0u);
    EXPECT_GT(profiler.totals(ProfilePhase::kEventSchedule).count, 0u);
    EXPECT_GT(profiler.totals(ProfilePhase::kAllocatorEpoch).count, 0u);
    EXPECT_GT(profiler.totals(ProfilePhase::kWaterFill).count, 0u);
    EXPECT_GT(profiler.totals(ProfilePhase::kProtocolLogic).count, 0u);
    EXPECT_GT(profiler.totals(ProfilePhase::kRequestStrategy).count, 0u);
    EXPECT_GT(profiler.totals(ProfilePhase::kPathLookup).count, 0u);
    EXPECT_GT(profiler.totals(ProfilePhase::kTopologyMetrics).count, 0u);
    // The water-fill runs inside (and so at most as often as) allocator epochs.
    EXPECT_EQ(profiler.totals(ProfilePhase::kWaterFill).count,
              profiler.totals(ProfilePhase::kAllocatorEpoch).count);
  } else {
    EXPECT_EQ(profiler.total_count(), 0u);
  }
}

// Counter accounting at the network level: a run's events_executed matches the
// event queue's executed count, and repeated Run() calls on one network never
// double-publish into the installed profile.
TEST(RunCountersTest, NetworkPublishesDeltasNotTotals) {
  PhaseProfiler profile;
  uint64_t first_events = 0;
  {
    ScopedProfilerInstall install(&profile);
    const WorkloadResult r = RunScenario("bittorrent", TinyConfig());
    first_events = r.events_executed;
  }
  EXPECT_EQ(profile.events_executed(), first_events);

  // A second, separate run accumulates on top (the sweep engine installs a
  // fresh profile per run; accumulation across runs must still be exact).
  {
    ScopedProfilerInstall install(&profile);
    (void)RunScenario("bittorrent", TinyConfig());
  }
  EXPECT_EQ(profile.events_executed(), 2 * first_events);
}

}  // namespace
}  // namespace bullet
