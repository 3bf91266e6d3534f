#include "src/harness/workload_gen.h"

#include <cmath>

#include "src/common/logging.h"

namespace bullet {

FlashCrowdArrivals::FlashCrowdArrivals(double late_fraction, SimTime late_offset)
    : late_fraction_(late_fraction), late_offset_(late_offset) {
  BULLET_CHECK(late_fraction >= 0.0 && late_fraction <= 1.0 &&
               "flash-crowd late_fraction must be in [0, 1]");
  BULLET_CHECK(late_offset >= 0 && "arrival offsets must be non-negative");
}

std::vector<SimTime> FlashCrowdArrivals::Offsets(size_t receivers, Rng& rng) const {
  std::vector<SimTime> offsets(receivers, 0);
  std::vector<size_t> slots(receivers);
  for (size_t i = 0; i < receivers; ++i) {
    slots[i] = i;
  }
  const size_t late =
      static_cast<size_t>(late_fraction_ * static_cast<double>(receivers) + 0.5);
  for (const size_t i : rng.Sample(slots, late)) {
    offsets[i] = late_offset_;
  }
  return offsets;
}

DiurnalArrivals::DiurnalArrivals(double base_rate_per_sec, double amplitude, SimTime period,
                                 double phase)
    : base_rate_per_sec_(base_rate_per_sec),
      amplitude_(amplitude),
      period_(period),
      phase_(phase) {
  BULLET_CHECK(base_rate_per_sec > 0.0 && "diurnal base rate must be positive");
  BULLET_CHECK(amplitude >= 0.0 && amplitude <= 1.0 && "diurnal amplitude must be in [0, 1]");
  BULLET_CHECK(period > 0 && "diurnal period must be positive");
}

std::vector<SimTime> DiurnalArrivals::Offsets(size_t receivers, Rng& rng) const {
  // Thinning (Lewis & Shedler): draw candidate gaps from a homogeneous process
  // at the peak rate, accept each candidate with probability lambda(t)/peak.
  // Exact for any horizon, and every draw comes from the caller's stream.
  const double peak = base_rate_per_sec_ * (1.0 + amplitude_);
  const double period_sec = SimToSec(period_);
  std::vector<SimTime> offsets;
  offsets.reserve(receivers);
  double t_sec = 0.0;
  while (offsets.size() < receivers) {
    t_sec += rng.Exponential(1.0 / peak);
    const double lambda =
        base_rate_per_sec_ *
        (1.0 + amplitude_ * std::sin(2.0 * M_PI * t_sec / period_sec + phase_));
    if (rng.UniformDouble() * peak < lambda) {
      offsets.push_back(SecToSim(t_sec));
    }
  }
  return offsets;
}

ParetoLifetime::ParetoLifetime(double alpha, SimTime xm, bool depart_after_completion,
                               SimTime linger)
    : alpha_(alpha), xm_(xm), depart_after_completion_(depart_after_completion), linger_(linger) {
  BULLET_CHECK(alpha > 0.0 && "Pareto alpha must be positive");
  BULLET_CHECK(xm > 0 && "Pareto minimum lifetime must be positive");
  BULLET_CHECK(linger >= 0 && "post-completion linger must be non-negative");
}

SimTime ParetoLifetime::Draw(Rng& rng) const {
  // Inverse CDF: L = xm * U^(-1/alpha) with U in (0, 1]. UniformDouble() is
  // [0, 1), so flip it — U = 0 would be an infinite draw.
  const double u = 1.0 - rng.UniformDouble();
  return static_cast<SimTime>(static_cast<double>(xm_) * std::pow(u, -1.0 / alpha_));
}

}  // namespace bullet
