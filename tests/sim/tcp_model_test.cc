#include "src/sim/tcp_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace bullet {
namespace {

TEST(TcpModel, MathisNoLossIsUnlimited) {
  EXPECT_GE(MathisCapBps(MsToSim(100), 0.0, 1460.0), 1e11);
}

TEST(TcpModel, MathisKnownValue) {
  // MSS 1460 B, RTT 200 ms, p = 1%: 1460*8 / (0.2 * sqrt(2*0.01/3)).
  const double expected = 1460.0 * 8.0 / (0.2 * std::sqrt(2.0 * 0.01 / 3.0));
  EXPECT_NEAR(MathisCapBps(MsToSim(200), 0.01, 1460.0), expected, 1.0);
}

TEST(TcpModel, MathisDecreasesWithLossAndRtt) {
  const double base = MathisCapBps(MsToSim(100), 0.01, 1460.0);
  EXPECT_LT(MathisCapBps(MsToSim(100), 0.02, 1460.0), base);
  EXPECT_LT(MathisCapBps(MsToSim(200), 0.01, 1460.0), base);
}

TEST(TcpModel, SlowStartRampGrows) {
  TcpFlowState state;
  state.OnBecameActive(0);
  const SimTime rtt = MsToSim(100);
  const double r0 = TcpRateCapBps(state, 0, rtt, 0.0);
  const double r3 = TcpRateCapBps(state, 3 * rtt, rtt, 0.0);
  const double r6 = TcpRateCapBps(state, 6 * rtt, rtt, 0.0);
  EXPECT_GT(r3, r0 * 4);  // doubles per RTT
  EXPECT_GT(r6, r3 * 4);
}

TEST(TcpModel, RampStartsFromInitialWindow) {
  TcpFlowState state;
  state.OnBecameActive(0);
  const SimTime rtt = MsToSim(100);
  // At t=0: IW segments per RTT.
  const double expected = kTcpInitialWindowSegments * kTcpMssBytes * 8.0 / 0.1;
  EXPECT_NEAR(TcpRateCapBps(state, 0, rtt, 0.0), expected, expected * 0.01);
}

TEST(TcpModel, IdleRestartResetsRamp) {
  TcpFlowState state;
  state.OnBecameActive(0);
  state.last_busy = SecToSim(10.0);
  // Re-activating shortly after staying busy keeps the ramp.
  state.OnBecameActive(SecToSim(10.5));
  EXPECT_EQ(state.active_since, 0);
  // Re-activating after a long idle restarts slow start.
  state.OnBecameActive(SecToSim(30.0));
  EXPECT_EQ(state.active_since, SecToSim(30.0));
}

// The first activation starts the ramp even within kTcpIdleRestart of the
// default last_busy (0): a fresh state has no busy period to resume.
TEST(TcpModel, FirstActivationStartsTheRampAtAnyTime) {
  TcpFlowState state;
  const SimTime first = SecToSim(0.5);
  ASSERT_LE(first - state.last_busy, kTcpIdleRestart);
  state.OnBecameActive(first);
  EXPECT_EQ(state.active_since, first);
  const SimTime rtt = MsToSim(100);
  const double initial = kTcpInitialWindowSegments * kTcpMssBytes * 8.0 / 0.1;
  EXPECT_NEAR(TcpRateCapBps(state, first, rtt, 0.0), initial, initial * 0.01);
  EXPECT_NEAR(TcpRateCapBps(state, first + rtt, rtt, 0.0), 2 * initial, initial * 0.01);
}

TEST(TcpModel, LossCapsTheRamp) {
  TcpFlowState state;
  state.OnBecameActive(0);
  const SimTime rtt = MsToSim(100);
  const double capped = TcpRateCapBps(state, SecToSim(60.0), rtt, 0.02);
  EXPECT_NEAR(capped, MathisCapBps(rtt, 0.02, kTcpMssBytes), 1.0);
}

}  // namespace
}  // namespace bullet
