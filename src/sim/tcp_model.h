// Flow-level TCP throughput model.
//
// The emulator shares link bandwidth among flows with max-min fairness, but real TCP
// cannot always use its fair share. Two effects from the paper's experiments matter:
//
//  1. Loss-limited steady state. Under random loss p a single TCP flow's throughput
//     is capped near the Mathis formula MSS / (RTT * sqrt(2p/3)). This is why more
//     peers (= more flows) make a Bullet' node's inbound bandwidth resilient to loss
//     (Fig. 7) and why requesting far more than the pipe needs is cheap insurance in
//     lossless settings but costly in dynamic ones (Figs. 10-12).
//
//  2. Slow-start ramp. A freshly active (or long-idle) connection takes several RTTs
//     to fill its pipe, which is what penalizes systems that constantly re-open
//     connections ("MACEDON TCP feasible + startup" line of Fig. 4).
//
// TcpFlowState tracks per-direction activity; RateCapBps combines both effects.

#ifndef SRC_SIM_TCP_MODEL_H_
#define SRC_SIM_TCP_MODEL_H_

#include "src/sim/time.h"

namespace bullet {

// Maximum segment size.
inline constexpr double kTcpMssBytes = 1460.0;
// Idle period after which the congestion window collapses back to slow start.
inline constexpr SimTime kTcpIdleRestart = MsToSim(1000);
// Initial window in segments (RFC 3390-era value; the paper predates IW10).
inline constexpr double kTcpInitialWindowSegments = 3.0;

struct TcpFlowState {
  // When the current busy period began (for the slow-start ramp); -1 until the
  // first activation, which always starts a fresh ramp. Simulated time is never
  // negative, so the sentinel needs no flag of its own (16 bytes per direction).
  SimTime active_since = -1;
  // When the direction last had bytes to send.
  SimTime last_busy = 0;

  // Called when a direction transitions idle -> busy.
  void OnBecameActive(SimTime now);
};

// Upper bound on this flow's rate (bits/second) given path RTT, path loss, and how
// long it has been continuously active. Returns a very large number when unlimited.
// A non-null `steady` also reports whether the cap has reached its steady state:
// once the slow-start ramp meets the loss/clamp ceiling (or the doubling count
// saturates), the cap is a constant for the rest of the busy period, so callers may
// cache it instead of recomputing per quantum. The returned value does not depend
// on `steady`; the network's incremental tick relies on that for reproducibility.
double TcpRateCapBps(const TcpFlowState& state, SimTime now, SimTime rtt, double loss,
                     bool* steady = nullptr);

// Steady-state Mathis cap alone (bits/second); infinite when loss == 0.
double MathisCapBps(SimTime rtt, double loss, double mss_bytes);

}  // namespace bullet

#endif  // SRC_SIM_TCP_MODEL_H_
