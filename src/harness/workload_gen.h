// Generator-driven dynamic workloads.
//
// The paper's claim is about behaviour *under dynamic network conditions*, but
// a WorkloadSpec written by hand can only describe one static membership. The
// generators here describe the processes that produce memberships and their
// dynamics — who arrives when (ArrivalProcess) and how long they stay
// (ParetoLifetime) — and churn.h adds ChurnModel for failure schedules. Each
// generator is a small immutable value: deterministic given the Rng stream it
// is handed (the harness derives one per generator from the session/workload
// seed with SplitMix64-style salts), so the same spec and seed always produce
// the same schedule.
//
// A SessionSpec carries `arrivals` and `lifetimes`; a WorkloadSpec carries
// `churn` (session.h holds them as shared_ptr-to-const). WorkloadExperiment
// expands arrivals into join_offsets and schedules lifetime departures on the
// event queue (routed through Network::FailNode and the session's completion
// policy, so a session whose stragglers left still terminates).

#ifndef SRC_HARNESS_WORKLOAD_GEN_H_
#define SRC_HARNESS_WORKLOAD_GEN_H_

#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/time.h"

namespace bullet {

// --- arrivals ---

// Produces the join offsets (relative to the session start) for a session's
// receivers; the harness keeps the source at offset zero. Offsets are returned
// in member order and must be non-negative. Deterministic in `rng`'s stream.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual std::vector<SimTime> Offsets(size_t receivers, Rng& rng) const = 0;
};

// The fig18 flash-crowd shape: a `late_fraction` of receivers (chosen uniformly
// at random) joins at `late_offset`, the rest at zero.
class FlashCrowdArrivals final : public ArrivalProcess {
 public:
  FlashCrowdArrivals(double late_fraction, SimTime late_offset);
  std::vector<SimTime> Offsets(size_t receivers, Rng& rng) const override;

 private:
  double late_fraction_;
  SimTime late_offset_;
};

// Inhomogeneous-Poisson arrivals under the diurnal rate curve
//   lambda(t) = base_rate_per_sec * (1 + amplitude * sin(2*pi*t/period + phase))
// drawn by thinning against the peak rate, so the process is exact for any
// horizon (multi-hour periods included). The first `receivers` arrival times
// become the offsets, assigned to members in arrival (= member) order.
class DiurnalArrivals final : public ArrivalProcess {
 public:
  // amplitude in [0, 1]; period > 0; base_rate_per_sec > 0.
  DiurnalArrivals(double base_rate_per_sec, double amplitude, SimTime period, double phase = 0.0);
  std::vector<SimTime> Offsets(size_t receivers, Rng& rng) const override;

 private:
  double base_rate_per_sec_;
  double amplitude_;
  SimTime period_;
  double phase_;
};

// --- lifetimes ---

// Heavy-tailed Pareto lifetimes: how long each receiver stays after joining,
// with P(L > t) = (xm/t)^alpha for t >= xm. Small alpha means a heavy tail
// (alpha <= 1 has infinite mean); xm is the minimum stay. Optionally also
// departs completed receivers `linger` after finishing (the "seeder departs"
// regime: seeders leave once done, plus lifetime truncation for those who
// never finish); the source never departs.
class ParetoLifetime final {
 public:
  ParetoLifetime(double alpha, SimTime xm, bool depart_after_completion = false,
                 SimTime linger = 0);
  // One draw per receiver, in member order; always at least xm.
  SimTime Draw(Rng& rng) const;
  bool departs_after_completion() const { return depart_after_completion_; }
  SimTime post_completion_linger() const { return linger_; }

 private:
  double alpha_;
  SimTime xm_;
  bool depart_after_completion_;
  SimTime linger_;
};

}  // namespace bullet

#endif  // SRC_HARNESS_WORKLOAD_GEN_H_
