// Generator coverage: statistical sanity for the stochastic generators (Pareto
// tail index, diurnal arrival rate), seed determinism for every generator, and
// the constructor validation death tests (churn models included).

#include "src/harness/workload_gen.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/harness/churn.h"

namespace bullet {
namespace {

// E[ln(L/xm)] = 1/alpha for Pareto(alpha, xm): the log-mean is a consistent
// estimator of the tail index, far more stable than moment fits (the mean
// itself diverges for alpha <= 1).
TEST(ParetoLifetimeTest, TailIndexMatchesAlpha) {
  for (const double alpha : {0.9, 1.5, 3.0}) {
    const SimTime xm = SecToSim(10.0);
    const ParetoLifetime model(alpha, xm);
    Rng rng(42);
    const int n = 100000;
    double log_sum = 0.0;
    for (int i = 0; i < n; ++i) {
      const SimTime draw = model.Draw(rng);
      ASSERT_GE(draw, xm);
      log_sum += std::log(static_cast<double>(draw) / static_cast<double>(xm));
    }
    const double alpha_hat = n / log_sum;
    // 100k samples put the estimator within a few percent of the truth.
    EXPECT_NEAR(alpha_hat, alpha, 0.05 * alpha) << "alpha " << alpha;
  }
}

TEST(ParetoLifetimeTest, DrawsArePositiveAndSeedDeterministic) {
  const ParetoLifetime model(1.2, SecToSim(5.0));
  Rng a(7);
  Rng b(7);
  Rng c(8);
  bool any_differs_across_seeds = false;
  for (int i = 0; i < 100; ++i) {
    const SimTime first = model.Draw(a);
    EXPECT_GT(first, 0);
    EXPECT_EQ(first, model.Draw(b));
    any_differs_across_seeds |= first != model.Draw(c);
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

// Over whole periods the sinusoid integrates to zero, so the expected time to
// collect N arrivals is N / base_rate; check the empirical horizon against it.
TEST(DiurnalArrivalsTest, ArrivalHorizonMatchesBaseRate) {
  const double base_rate = 2.0;  // per second
  const DiurnalArrivals arrivals(base_rate, 0.8, SecToSim(10.0));
  Rng rng(99);
  const size_t receivers = 4000;  // 2000 expected seconds = 200 whole periods
  const std::vector<SimTime> offsets = arrivals.Offsets(receivers, rng);
  ASSERT_EQ(offsets.size(), receivers);
  SimTime prev = 0;
  for (const SimTime t : offsets) {
    EXPECT_GE(t, prev);  // a counting process: offsets come out sorted
    prev = t;
  }
  const double horizon_sec = SimToSec(offsets.back());
  const double expected_sec = static_cast<double>(receivers) / base_rate;
  EXPECT_NEAR(horizon_sec, expected_sec, 0.10 * expected_sec);
}

TEST(DiurnalArrivalsTest, RateModulationFollowsTheCurve) {
  // With phase 0 the first half-period runs above base rate and the second half
  // below, so strictly more arrivals land in [0, period/2) than [period/2, period).
  const double base_rate = 5.0;
  const SimTime period = SecToSim(100.0);
  const DiurnalArrivals arrivals(base_rate, 1.0, period);
  Rng rng(5);
  const std::vector<SimTime> offsets = arrivals.Offsets(400, rng);
  int first_half = 0;
  int second_half = 0;
  for (const SimTime t : offsets) {
    if (t >= period) {
      break;  // only the first full period gives a clean half/half comparison
    }
    (t < period / 2 ? first_half : second_half)++;
  }
  EXPECT_GT(first_half, 2 * second_half);
}

TEST(FlashCrowdArrivalsTest, LateFractionIsHonoredAndDeterministic) {
  const FlashCrowdArrivals arrivals(0.4, SecToSim(60.0));
  Rng a(11);
  Rng b(11);
  const std::vector<SimTime> first = arrivals.Offsets(50, a);
  const std::vector<SimTime> second = arrivals.Offsets(50, b);
  EXPECT_EQ(first, second);
  int late = 0;
  for (const SimTime t : first) {
    EXPECT_TRUE(t == 0 || t == SecToSim(60.0));
    late += t != 0;
  }
  EXPECT_EQ(late, 20);  // 0.4 * 50
}

using WorkloadGenDeathTest = ::testing::Test;

TEST(WorkloadGenDeathTest, InvalidGeneratorSpecsAbort) {
  EXPECT_DEATH(FlashCrowdArrivals(1.5, 0), "late_fraction");
  EXPECT_DEATH(FlashCrowdArrivals(0.5, -1), "non-negative");
  EXPECT_DEATH(DiurnalArrivals(0.0, 0.5, SecToSim(10.0)), "base rate");
  EXPECT_DEATH(DiurnalArrivals(1.0, 1.5, SecToSim(10.0)), "amplitude");
  EXPECT_DEATH(DiurnalArrivals(1.0, 0.5, 0), "period");
  EXPECT_DEATH(ParetoLifetime(0.0, SecToSim(1.0)), "alpha");
  EXPECT_DEATH(ParetoLifetime(1.5, 0), "minimum lifetime");
  EXPECT_DEATH(ParetoLifetime(1.5, SecToSim(1.0), true, -1), "linger");
  EXPECT_DEATH(LeafFailureChurn(0), "positive victim count");
  EXPECT_DEATH(LeafFailureChurn(3, 0), "first_kill");
  EXPECT_DEATH(LeafFailureChurn(3, SecToSim(1.0), 0), "interval");
}

}  // namespace
}  // namespace bullet
