// Per-phase profiling and always-on run counters for the perf flywheel.
//
// Two layers with different cost/availability trade-offs:
//
//  * RunCounters — always compiled in. Deterministic event/epoch/byte totals
//    the simulator publishes as it runs (plain integer increments; the network
//    is single-threaded per run). The harness installs a fresh RunCounters per
//    scenario run through a thread-local pointer, so concurrent sweep workers
//    each observe only their own run. These counts depend solely on the seed
//    and configuration — never on wall time — which is what lets sweep
//    aggregates stay byte-identical across --jobs and lets CI gate normalized
//    throughput (count / wall) instead of raw wall clocks.
//
//  * PhaseProfiler — compiled in only with -DBULLET_PROFILE=ON (the
//    BULLET_PROFILE preprocessor flag). Per-phase {count, nanoseconds} totals
//    fed by the BULLET_PROFILE_SCOPE / BULLET_PROFILE_COUNT macros below; in
//    non-profiled builds the macros expand to nothing and the hot paths carry
//    zero overhead. Counts are deterministic (same contract as RunCounters);
//    the nanosecond totals are wall-clock measurements and are therefore only
//    surfaced where wall time is already allowed (per-run JSON, the --profile
//    summary), never in sweep aggregates.
//
// Determinism contract: profiling only *observes* the simulation. Timer reads
// (steady_clock) and counter increments never feed back into event ordering,
// RNG draws, or allocation arithmetic, so a profiled run produces bitwise
// identical BENCH metrics to an unprofiled run of the same seed — the
// determinism test layer asserts this.
//
// Nesting: phase timers are inclusive. kProtocolLogic runs inside a
// kEventDispatch scope (message delivery is an event), so the dispatch total
// includes protocol time; readers subtract when they want exclusive numbers.
//
// Thread-safety: PhaseProfiler totals are relaxed atomics, so one profiler may
// be shared across threads (the sweep engine instead installs one per worker
// run via the thread-local current pointer — cheaper and per-run attributable).
// Install/Swap of the thread-local pointers themselves are per-thread
// operations and must not race with the owning run.

#ifndef SRC_COMMON_PROFILER_H_
#define SRC_COMMON_PROFILER_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace bullet {

// Deterministic totals for one scenario run. The simulator adds to the
// installed instance (if any); the harness snapshots it after the run.
struct RunCounters {
  uint64_t events_executed = 0;   // event-queue callbacks fired
  uint64_t allocator_epochs = 0;  // max-min water-fill recomputations
  uint64_t sim_bytes_sent = 0;    // wire bytes transmitted (all nodes)

  // Thread-local current instance; nullptr outside an installed run.
  static RunCounters* Current();
  // Installs `c` (may be nullptr) and returns the previous instance.
  static RunCounters* Swap(RunCounters* c);
};

// RAII install/restore of the thread-local RunCounters.
class ScopedRunCounters {
 public:
  explicit ScopedRunCounters(RunCounters* c) : prev_(RunCounters::Swap(c)) {}
  ~ScopedRunCounters() { RunCounters::Swap(prev_); }
  ScopedRunCounters(const ScopedRunCounters&) = delete;
  ScopedRunCounters& operator=(const ScopedRunCounters&) = delete;

 private:
  RunCounters* prev_;
};

// The instrumented phases. Names (ProfilePhaseName) are the JSON keys of the
// `profile` block, so renaming one is a schema-visible change.
enum class ProfilePhase : int {
  kEventDispatch = 0,   // event-queue callback execution (timed per event)
  kEventSchedule,       // EventQueue::Schedule calls (count only)
  kAllocatorEpoch,      // flow-set rebuild + max-min water-fill (network tick)
  kWaterFill,           // the water-fill proper (inside kAllocatorEpoch)
  kProtocolLogic,       // NetHandler::OnMessage protocol processing
  kRequestStrategy,     // protocol request-issuing loops (core + baselines)
  kPathLookup,          // route/path-cache snapshots at Connect()
  kTopologyMetrics,     // PathDelay/Rtt/PathLoss composition at Connect()
  kCount,
};

constexpr int kProfilePhaseCount = static_cast<int>(ProfilePhase::kCount);
const char* ProfilePhaseName(ProfilePhase phase);

// Per-phase counter/timer accumulator. All mutation is relaxed-atomic.
class PhaseProfiler {
 public:
  // True in builds configured with -DBULLET_PROFILE=ON; lets tests branch on
  // whether the macros below are live without duplicating the preprocessor
  // condition.
  static constexpr bool kCompiledIn =
#ifdef BULLET_PROFILE
      true;
#else
      false;
#endif

  struct PhaseTotals {
    uint64_t count = 0;
    uint64_t ns = 0;
  };

  void AddCount(ProfilePhase phase, uint64_t n = 1) {
    slot(phase).count.fetch_add(n, std::memory_order_relaxed);
  }
  void AddTimed(ProfilePhase phase, uint64_t ns) {
    Slot& s = slot(phase);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.ns.fetch_add(ns, std::memory_order_relaxed);
  }

  PhaseTotals totals(ProfilePhase phase) const {
    const Slot& s = slots_[static_cast<size_t>(phase)];
    return PhaseTotals{s.count.load(std::memory_order_relaxed),
                       s.ns.load(std::memory_order_relaxed)};
  }

  void Reset();

  // Thread-local current instance; nullptr when no profiler is installed (the
  // macros then cost one thread-local load + branch per site).
  static PhaseProfiler* Current();
  static PhaseProfiler* Swap(PhaseProfiler* p);

 private:
  struct Slot {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> ns{0};
  };
  Slot& slot(ProfilePhase phase) { return slots_[static_cast<size_t>(phase)]; }

  Slot slots_[kProfilePhaseCount];
};

// A plain-value copy of a profiler's totals, safe to store and pass around
// after the profiler itself is gone (the sweep engine snapshots per run).
struct PhaseSnapshot {
  PhaseProfiler::PhaseTotals phases[kProfilePhaseCount] = {};

  // Sum of the deterministic per-phase counts; zero iff nothing was recorded
  // (non-profiled builds, or no profiler installed).
  uint64_t total_count() const {
    uint64_t n = 0;
    for (const PhaseProfiler::PhaseTotals& t : phases) {
      n += t.count;
    }
    return n;
  }
};

inline PhaseSnapshot SnapshotPhases(const PhaseProfiler& profiler) {
  PhaseSnapshot snap;
  for (int p = 0; p < kProfilePhaseCount; ++p) {
    snap.phases[p] = profiler.totals(static_cast<ProfilePhase>(p));
  }
  return snap;
}

// RAII install/restore of the thread-local PhaseProfiler.
class ScopedProfilerInstall {
 public:
  explicit ScopedProfilerInstall(PhaseProfiler* p) : prev_(PhaseProfiler::Swap(p)) {}
  ~ScopedProfilerInstall() { PhaseProfiler::Swap(prev_); }
  ScopedProfilerInstall(const ScopedProfilerInstall&) = delete;
  ScopedProfilerInstall& operator=(const ScopedProfilerInstall&) = delete;

 private:
  PhaseProfiler* prev_;
};

#ifdef BULLET_PROFILE

namespace profiler_internal {

// Times one scope into the installed profiler. The clock is read only when a
// profiler is installed, so uninstrumented runs of a profiled build pay a
// thread-local load + branch per scope and nothing else.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(ProfilePhase phase)
      : profiler_(PhaseProfiler::Current()), phase_(phase) {
    if (profiler_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedPhaseTimer() {
    if (profiler_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      profiler_->AddTimed(phase_, static_cast<uint64_t>(ns));
    }
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  PhaseProfiler* profiler_;
  ProfilePhase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace profiler_internal

#define BULLET_PROFILE_CONCAT_INNER(a, b) a##b
#define BULLET_PROFILE_CONCAT(a, b) BULLET_PROFILE_CONCAT_INNER(a, b)
// Times the enclosing scope under `phase` (count + nanoseconds).
#define BULLET_PROFILE_SCOPE(phase)                                        \
  ::bullet::profiler_internal::ScopedPhaseTimer BULLET_PROFILE_CONCAT(     \
      bullet_profile_scope_, __LINE__)(phase)
// Bumps `phase`'s count without timing (for sites too cheap to clock).
#define BULLET_PROFILE_COUNT(phase)                                        \
  do {                                                                     \
    ::bullet::PhaseProfiler* bullet_profile_p = ::bullet::PhaseProfiler::Current(); \
    if (bullet_profile_p != nullptr) {                                     \
      bullet_profile_p->AddCount(phase);                                   \
    }                                                                      \
  } while (false)

#else  // !BULLET_PROFILE

#define BULLET_PROFILE_SCOPE(phase) \
  do {                              \
  } while (false)
#define BULLET_PROFILE_COUNT(phase) \
  do {                              \
  } while (false)

#endif  // BULLET_PROFILE

}  // namespace bullet

#endif  // SRC_COMMON_PROFILER_H_
