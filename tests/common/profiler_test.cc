// Tests for the two-layer profiling harness (src/common/profiler.h):
// always-on RunCounters install/accumulate semantics, PhaseProfiler totals,
// and — crucially — that profiling never perturbs simulation results. The
// determinism assertions run in every build; the macro-liveness assertions
// branch on PhaseProfiler::kCompiledIn so one test source covers both the
// default and the -DBULLET_PROFILE=ON CI configurations.

#include "src/common/profiler.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/harness/scenarios.h"

namespace bullet {
namespace {

TEST(RunCountersTest, SwapInstallsAndRestores) {
  EXPECT_EQ(RunCounters::Current(), nullptr);
  RunCounters outer;
  {
    ScopedRunCounters install(&outer);
    EXPECT_EQ(RunCounters::Current(), &outer);
    RunCounters inner;
    {
      ScopedRunCounters nested(&inner);
      EXPECT_EQ(RunCounters::Current(), &inner);
    }
    EXPECT_EQ(RunCounters::Current(), &outer);
  }
  EXPECT_EQ(RunCounters::Current(), nullptr);
}

TEST(RunCountersTest, InstallIsThreadLocal) {
  RunCounters mine;
  ScopedRunCounters install(&mine);
  RunCounters* seen_in_thread = &mine;
  std::thread([&seen_in_thread] { seen_in_thread = RunCounters::Current(); }).join();
  EXPECT_EQ(seen_in_thread, nullptr);
  EXPECT_EQ(RunCounters::Current(), &mine);
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

TEST(PhaseProfilerTest, AddAndResetTotals) {
  PhaseProfiler profiler;
  profiler.AddCount(ProfilePhase::kEventSchedule, 3);
  profiler.AddTimed(ProfilePhase::kEventDispatch, 250);
  EXPECT_EQ(profiler.totals(ProfilePhase::kEventSchedule).count, 3u);
  EXPECT_EQ(profiler.totals(ProfilePhase::kEventDispatch).count, 1u);
  EXPECT_EQ(profiler.totals(ProfilePhase::kEventDispatch).ns, 250u);

  const PhaseSnapshot snap = SnapshotPhases(profiler);
  EXPECT_EQ(snap.total_count(), 4u);

  profiler.Reset();
  EXPECT_EQ(profiler.totals(ProfilePhase::kEventDispatch).count, 0u);
  EXPECT_EQ(SnapshotPhases(profiler).total_count(), 0u);
}

ScenarioConfig TinyConfig() {
  ScenarioConfig cfg;
  cfg.num_nodes = 8;
  cfg.file_mb = 0.25;
  cfg.seed = 7;
  return cfg;
}

// One small scenario, three ways: bare, with counters installed, with counters
// and a profiler installed. All three must produce identical results (the
// determinism contract in profiler.h), and the counters must match the
// network totals the scenario reports.
TEST(ProfilerDeterminismTest, InstrumentationDoesNotPerturbResults) {
  const ScenarioConfig cfg = TinyConfig();
  const WorkloadResult bare = RunScenario("bullet-prime", cfg);

  RunCounters counters;
  PhaseProfiler profiler;
  WorkloadResult instrumented;
  {
    ScopedRunCounters install_counters(&counters);
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

  // The installed RunCounters saw exactly what the network published.
  EXPECT_EQ(counters.events_executed, instrumented.events_executed);
  EXPECT_EQ(counters.allocator_epochs, instrumented.allocator_epochs);
  EXPECT_EQ(counters.sim_bytes_sent, instrumented.sim_bytes_sent);
  EXPECT_GT(counters.events_executed, 0u);
  EXPECT_GT(counters.allocator_epochs, 0u);
  EXPECT_GT(counters.sim_bytes_sent, 0u);
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
  const PhaseSnapshot snap = SnapshotPhases(profiler);
  if (PhaseProfiler::kCompiledIn) {
    EXPECT_GT(snap.phases[static_cast<int>(ProfilePhase::kEventDispatch)].count, 0u);
    EXPECT_GT(snap.phases[static_cast<int>(ProfilePhase::kEventSchedule)].count, 0u);
    EXPECT_GT(snap.phases[static_cast<int>(ProfilePhase::kAllocatorEpoch)].count, 0u);
    EXPECT_GT(snap.phases[static_cast<int>(ProfilePhase::kWaterFill)].count, 0u);
    EXPECT_GT(snap.phases[static_cast<int>(ProfilePhase::kProtocolLogic)].count, 0u);
    EXPECT_GT(snap.phases[static_cast<int>(ProfilePhase::kRequestStrategy)].count, 0u);
    EXPECT_GT(snap.phases[static_cast<int>(ProfilePhase::kPathLookup)].count, 0u);
    EXPECT_GT(snap.phases[static_cast<int>(ProfilePhase::kTopologyMetrics)].count, 0u);
    // The water-fill runs inside (and so at most as often as) allocator epochs.
    EXPECT_EQ(snap.phases[static_cast<int>(ProfilePhase::kWaterFill)].count,
              snap.phases[static_cast<int>(ProfilePhase::kAllocatorEpoch)].count);
  } else {
    EXPECT_EQ(snap.total_count(), 0u);
  }
}

// Counter accounting at the network level: a run's events_executed matches the
// event queue's executed count, and repeated Run() calls on one network never
// double-publish into the installed RunCounters.
TEST(RunCountersTest, NetworkPublishesDeltasNotTotals) {
  RunCounters counters;
  uint64_t first_events = 0;
  {
    ScopedRunCounters install(&counters);
    const WorkloadResult r = RunScenario("bittorrent", TinyConfig());
    first_events = r.events_executed;
  }
  EXPECT_EQ(counters.events_executed, first_events);

  // A second, separate run accumulates on top (the sweep engine installs a
  // fresh RunCounters per run; accumulation across runs must still be exact).
  {
    ScopedRunCounters install(&counters);
    (void)RunScenario("bittorrent", TinyConfig());
  }
  EXPECT_EQ(counters.events_executed, 2 * first_events);
}

}  // namespace
}  // namespace bullet
