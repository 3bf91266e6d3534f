#include "src/sim/tcp_model.h"

#include <algorithm>
#include <cmath>

namespace bullet {

namespace {
constexpr double kUnlimitedBps = 1e12;
}

void TcpFlowState::OnBecameActive(SimTime now) {
  if (active_since < 0 || now - last_busy > kTcpIdleRestart) {
    active_since = now;  // Fresh slow start.
  }
  last_busy = now;
}

double MathisCapBps(SimTime rtt, double loss, double mss_bytes) {
  if (loss <= 0.0) {
    return kUnlimitedBps;
  }
  const double rtt_sec = std::max(SimToSec(rtt), 1e-4);
  return mss_bytes * 8.0 / (rtt_sec * std::sqrt(2.0 * loss / 3.0));
}

double TcpRateCapBps(const TcpFlowState& state, SimTime now, SimTime rtt, double loss,
                     bool* steady) {
  const double rtt_sec = std::max(SimToSec(rtt), 1e-4);
  // Slow-start ramp: cwnd doubles every RTT starting from the initial window, so the
  // achievable rate after t seconds of activity is IW * 2^(t/RTT) segments per RTT.
  const double active_sec = std::max(0.0, SimToSec(now - state.active_since));
  const double doublings = std::min(active_sec / rtt_sec, 40.0);
  const double ramp_bps =
      kTcpInitialWindowSegments * kTcpMssBytes * 8.0 / rtt_sec * std::exp2(doublings);
  const double mathis_bps = MathisCapBps(rtt, loss, kTcpMssBytes);
  if (steady != nullptr) {
    // The ramp is nondecreasing in `now` (active_since fixed while busy), so once
    // it reaches the constant ceiling — or its doubling count saturates — the cap
    // can never change again during this busy period.
    *steady = doublings >= 40.0 || ramp_bps >= std::min(mathis_bps, kUnlimitedBps);
  }
  return std::min(std::min(ramp_bps, mathis_bps), kUnlimitedBps);
}

}  // namespace bullet
