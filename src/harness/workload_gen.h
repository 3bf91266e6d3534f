// Generator-driven dynamic workloads.
//
// The paper's claim is about behaviour *under dynamic network conditions*, but
// a WorkloadSpec written by hand can only describe one static membership. The
// generators here describe the processes that produce memberships and their
// dynamics — who arrives when (ArrivalProcess), how long they stay
// (LifetimeModel), what their access links look like (AccessLinkDistribution) —
// and churn.h adds ChurnModel for failure schedules. Each generator is a small
// immutable value: deterministic given the Rng stream it is handed (the harness
// derives one per generator from the session/workload seed with SplitMix64-style
// salts), so the same spec and seed always produce the same schedule.
//
// A SessionSpec carries `arrivals` and `lifetimes`; a WorkloadSpec carries
// `access_links` and `churn` (session.h holds them as shared_ptr-to-const).
// WorkloadExperiment expands arrivals into join_offsets, schedules lifetime
// departures on the event queue (routed through Network::FailNode and the
// session's completion policy, so a session whose stragglers left still
// terminates), and BuildScenarioExperiment applies access-link cohorts to the
// topology before the network is built.

#ifndef SRC_HARNESS_WORKLOAD_GEN_H_
#define SRC_HARNESS_WORKLOAD_GEN_H_

#include <cstddef>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/time.h"
#include "src/sim/topology.h"

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

// Every receiver joins at the same fixed offset (0 = the legacy everyone-at-t0
// shape, expressed as a generator).
class FixedOffsetArrivals final : public ArrivalProcess {
 public:
  explicit FixedOffsetArrivals(SimTime offset = 0);
  std::vector<SimTime> Offsets(size_t receivers, Rng& rng) const override;

 private:
  SimTime offset_;
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

  double base_rate_per_sec() const { return base_rate_per_sec_; }

 private:
  double base_rate_per_sec_;
  double amplitude_;
  SimTime period_;
  double phase_;
};

// --- lifetimes ---

// Draws how long each receiver stays after joining. A negative draw means the
// member never departs on its own. Models may additionally declare that
// completed receivers depart (stop seeding) `post_completion_linger()` after
// finishing — the "seeder departs" regime; the source never departs.
class LifetimeModel {
 public:
  virtual ~LifetimeModel() = default;
  // One draw per receiver, in member order; `member_index` is the receiver's
  // slot in the normalized member list. Draws must be positive or negative
  // (infinite) — a zero lifetime would depart a member at its join instant.
  virtual SimTime Draw(size_t member_index, Rng& rng) const = 0;
  virtual bool departs_after_completion() const { return false; }
  virtual SimTime post_completion_linger() const { return 0; }
};

// Members stay forever (the legacy behaviour, expressed as a generator).
class InfiniteLifetime final : public LifetimeModel {
 public:
  SimTime Draw(size_t member_index, Rng& rng) const override;
};

// Heavy-tailed Pareto lifetimes: P(L > t) = (xm/t)^alpha for t >= xm. Small
// alpha means a heavy tail (alpha <= 1 has infinite mean); xm is the minimum
// stay. Optionally also departs completed receivers after `linger` (seeders
// leave once done, plus lifetime truncation for those who never finish).
class ParetoLifetime final : public LifetimeModel {
 public:
  ParetoLifetime(double alpha, SimTime xm, bool depart_after_completion = false,
                 SimTime linger = 0);
  SimTime Draw(size_t member_index, Rng& rng) const override;
  bool departs_after_completion() const override { return depart_after_completion_; }
  SimTime post_completion_linger() const override { return linger_; }

  double alpha() const { return alpha_; }

 private:
  double alpha_;
  SimTime xm_;
  bool depart_after_completion_;
  SimTime linger_;
};

// Infinite lifetime until completion, then depart after `linger`: the pure
// "seeder departs after completing" policy.
class SeederDepartureLifetime final : public LifetimeModel {
 public:
  explicit SeederDepartureLifetime(SimTime linger = 0);
  SimTime Draw(size_t member_index, Rng& rng) const override;
  bool departs_after_completion() const override { return true; }
  SimTime post_completion_linger() const override { return linger_; }

 private:
  SimTime linger_;
};

// --- access links ---

// Mutates per-node access-link parameters on a freshly built topology (before
// the network snapshots anything). Deterministic in `rng`'s stream.
class AccessLinkDistribution {
 public:
  virtual ~AccessLinkDistribution() = default;
  virtual void Apply(Topology& topology, Rng& rng) const = 0;
};

// Every node gets symmetric `bps` access links.
class UniformAccessLinks final : public AccessLinkDistribution {
 public:
  explicit UniformAccessLinks(double bps);
  void Apply(Topology& topology, Rng& rng) const override;

 private:
  double bps_;
};

// A DSL-like cohort: `fraction` of the nodes (chosen uniformly, never node 0 —
// a throttled source would turn every run into a source-uplink benchmark) get
// asymmetric down >> up access links; the rest keep the topology's defaults.
class DslAccessLinks final : public AccessLinkDistribution {
 public:
  DslAccessLinks(double fraction, double down_bps, double up_bps);
  void Apply(Topology& topology, Rng& rng) const override;

 private:
  double fraction_;
  double down_bps_;
  double up_bps_;
};

}  // namespace bullet

#endif  // SRC_HARNESS_WORKLOAD_GEN_H_
