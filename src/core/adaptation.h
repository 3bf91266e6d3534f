// The Bullet' adaptation algorithms as pure functions, straight from the paper's
// pseudocode, so tests can exercise them exhaustively.
//
//  * ManageMaxPeers      — Fig. 2 (ManageSenders): hill-climbing on the peer-set size
//                          driven by observed bandwidth between RanSub epochs. The
//                          identical procedure runs for receivers with outgoing
//                          bandwidth (Section 3.3.1).
//  * TrimIndices         — the 1.5-standard-deviation rule: disconnect peers whose
//                          metric falls that far below the mean, never dropping below
//                          the minimum peer count.
//  * ManageOutstanding   — Fig. 3: the XCP-derived controller for the per-peer
//                          outstanding-request window (Section 3.3.3).

#ifndef SRC_CORE_ADAPTATION_H_
#define SRC_CORE_ADAPTATION_H_

#include <cstddef>
#include <vector>

namespace bullet {

struct PeerSetState {
  int max_peers = 10;       // MAX_SENDERS (or MAX_RECEIVERS)
  int num_prev = 0;         // peer count at the previous epoch
  double prev_bw = 0.0;     // bandwidth observed over the previous epoch
};

// Runs one epoch of Fig. 2. `cur_size` is the current peer count and `bw` the
// bandwidth observed since the last epoch. Returns the updated MAX value clamped to
// [hard_min, hard_max] and updates history fields in `state`.
int ManageMaxPeers(PeerSetState& state, int cur_size, double bw, int hard_min, int hard_max);

// Returns indices of `metric` entries lying more than `stddevs` standard deviations
// below the mean, worst first, never selecting so many that fewer than `min_keep`
// entries remain. With zero spread nothing is selected (the paper: "if all of a
// peer's senders are approximately equal... none of them should be closed").
std::vector<size_t> TrimIndices(const std::vector<double>& metric, double stddevs,
                                size_t min_keep);

struct OutstandingParams {
  double alpha = 0.4;  // XCP efficiency-controller gains (Section 3.3.3)
  double beta = 0.226;
  double min_outstanding = 1.0;
  double max_outstanding = 64.0;
};

// Runs one Fig. 3 update. `requested` is the number of blocks currently outstanding
// to this sender; `in_front` and `wasted_sec` are the sender-measured values echoed
// on the marked block; `bandwidth_Bps` is the receiver-measured rate from this
// sender in bytes/second. Returns the new desired outstanding window. Increases are
// rounded up (the paper takes the ceiling when increasing, so request pipelines
// saturate TCP rather than just match it).
double ManageOutstanding(double requested, double in_front, double wasted_sec,
                         double bandwidth_Bps, double block_bytes,
                         const OutstandingParams& params);

}  // namespace bullet

#endif  // SRC_CORE_ADAPTATION_H_
