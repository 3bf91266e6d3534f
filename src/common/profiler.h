// The per-run profile for the perf flywheel: one PhaseProfiler, which the
// harness installs for each run through a thread-local pointer, holds the
// run's always-on counters and its per-phase totals.
//
//  * Run counters — always compiled in. Deterministic event/epoch/byte totals
//    the network adds at the end of each Run() (plain integer additions; a
//    run is single-threaded). These counts depend solely on the seed and
//    configuration — never on wall time — which is what lets sweep aggregates
//    stay byte-identical across --jobs and lets CI gate normalized throughput
//    (count / wall) instead of raw wall clocks.
//
//  * Phase totals — compiled in only with -DBULLET_PROFILE=ON (the
//    BULLET_PROFILE preprocessor flag). Per-phase {count, nanoseconds} totals
//    fed by the BULLET_PROFILE_SCOPE / BULLET_PROFILE_COUNT macros below; in
//    non-profiled builds the macros expand to nothing and the hot paths carry
//    zero overhead. Counts are deterministic (same contract as the run
//    counters); the nanosecond totals are wall-clock measurements and are
//    therefore only surfaced where wall time is already allowed (per-run JSON,
//    the --profile summary), never in sweep aggregates.
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
// Threads: every run installs its own PhaseProfiler on the thread that
// executes it (the sweep engine does so per worker run), so the totals are
// plain integers that only that thread touches. Install/Swap of the
// thread-local pointer are per-thread operations and must not race with the
// owning run.

#ifndef SRC_COMMON_PROFILER_H_
#define SRC_COMMON_PROFILER_H_

#include <chrono>
#include <cstdint>

namespace bullet {

// The instrumented phases. Names (ProfilePhaseName) are the JSON keys of the
// `profile` block, so renaming one is a schema-visible change.
enum class ProfilePhase : int {
  kEventDispatch = 0,   // event-queue callback execution (timed per event)
  kEventSchedule,       // EventQueue::Schedule calls (count only)
  kAllocatorEpoch,      // flow-set rebuild + max-min water-fill (network tick)
  kWaterFill,           // the water-fill proper (inside kAllocatorEpoch)
  kProtocolLogic,       // NetHandler::OnMessage protocol processing
  kRequestStrategy,     // protocol request-issuing loops (core + baselines)
  kPathLookup,          // InteriorPath route snapshots at Connect()
  kTopologyMetrics,     // PathDelay/PathLoss composition at Connect()
  kCount,
};

constexpr int kProfilePhaseCount = static_cast<int>(ProfilePhase::kCount);
const char* ProfilePhaseName(ProfilePhase phase);

// The run counters and per-phase totals of one run. A plain value: the harness
// keeps it with the run's results after the run.
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

  // Adds to the run counters; the network calls this at the end of each
  // Run() with what that call executed, so several networks (or Run() calls)
  // feeding one run add up exactly.
  void AddRunTotals(uint64_t events, uint64_t epochs, uint64_t bytes) {
    events_executed_ += events;
    allocator_epochs_ += epochs;
    sim_bytes_sent_ += bytes;
  }
  uint64_t events_executed() const { return events_executed_; }    // queue callbacks fired
  uint64_t allocator_epochs() const { return allocator_epochs_; }  // water-fill recomputes
  uint64_t sim_bytes_sent() const { return sim_bytes_sent_; }      // wire bytes, all nodes

  void AddCount(ProfilePhase phase, uint64_t n = 1) { at(phase).count += n; }
  void AddTimed(ProfilePhase phase, uint64_t ns) {
    PhaseTotals& t = at(phase);
    ++t.count;
    t.ns += ns;
  }

  const PhaseTotals& totals(ProfilePhase phase) const {
    return phases_[static_cast<size_t>(phase)];
  }

  // Sum of the deterministic per-phase counts; zero iff no phase was recorded
  // (non-profiled builds, or no profiler installed). The run counters are not
  // phases and are not included.
  uint64_t total_count() const {
    uint64_t n = 0;
    for (const PhaseTotals& t : phases_) {
      n += t.count;
    }
    return n;
  }

  // Thread-local current instance; nullptr when no profiler is installed (the
  // macros then cost one thread-local load + branch per site).
  static PhaseProfiler* Current();
  static PhaseProfiler* Swap(PhaseProfiler* p);

 private:
  PhaseTotals& at(ProfilePhase phase) { return phases_[static_cast<size_t>(phase)]; }

  PhaseTotals phases_[kProfilePhaseCount] = {};
  uint64_t events_executed_ = 0;
  uint64_t allocator_epochs_ = 0;
  uint64_t sim_bytes_sent_ = 0;
};

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
