// Playback-deadline (streaming) dissemination mode.
//
// A streaming session gives every block a *position* in a playback schedule:
// position p of an n-position stream is released by the source at
// `session_start + p * block_duration`, where block_duration derives from the
// stream bitrate. Encoded streams (SplitStream, forced-encoded Bullet) wrap
// their larger id space onto positions (`id mod n`), so a continuing encoded
// stream refills positions a receiver missed. Receivers play positions in
// order after a startup buffer; the metric of interest becomes rebuffer/stall
// time and blocks missing their playback deadline rather than download time.
//
// Late joiners catch up from the live edge backwards: a receiver joining at
// time J starts its playback at the position the source is releasing at J
// (earlier positions are not required), mirroring a viewer tuning into a live
// stream. Request eligibility is a sliding window of `window_blocks` positions
// starting at the receiver's next unplayed position — only blocks inside the
// window (and already released at the source) are requestable, and the
// configured request strategy (rarest-random for Bullet') applies within it.

#ifndef SRC_OVERLAY_STREAMING_H_
#define SRC_OVERLAY_STREAMING_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace bullet {

// Per-session streaming policy (SessionSpec::streaming). Unset = bulk mode.
struct StreamingSpec {
  double bitrate_mbps = 2.0;      // playback consumption rate
  int window_blocks = 64;         // sliding request-window size, in positions
  double startup_buffer_sec = 5.0;  // delay between join and playback start
};

// Playback state for one receiver (or the source's pacing clock): position
// math, the live edge, the sliding request window, and held-position tracking.
// Constructed at the node's join time; deterministic and allocation-light.
class StreamPlayback {
 public:
  StreamPlayback(const StreamingSpec& spec, uint32_t num_positions, int64_t block_bytes,
                 SimTime session_start, SimTime join_time);

  uint32_t num_positions() const { return num_positions_; }
  SimTime block_duration() const { return block_duration_; }
  const StreamingSpec& spec() const { return spec_; }
  SimTime join_time() const { return join_time_; }

  // Playback position of a block id; encoded id spaces wrap (`id mod n`).
  uint32_t PositionOf(uint32_t id) const { return id % num_positions_; }

  // Positions fully released by the source at `t` (position p is released
  // during [start + p*d, start + (p+1)*d)); capped at num_positions.
  uint32_t LiveEdge(SimTime t) const;
  // Blocks the source may have minted by `t` — the release cadence without the
  // num_positions cap (encoded sources keep streaming past one file pass).
  uint64_t BlocksReleasable(SimTime t) const;

  // First position this receiver must play: the live edge at its join time
  // (clamped so every receiver needs at least the final position).
  uint32_t start_position() const { return start_position_; }
  // Next unplayed (not yet held) position; num_positions() once complete.
  uint32_t next_needed() const { return next_needed_; }
  // All required positions [start_position, num_positions) are held.
  bool Complete() const { return next_needed_ >= num_positions_; }

  // Marks a position held; returns true on the first time. Advances the
  // window past the contiguous held prefix.
  bool MarkHeld(uint32_t position);
  bool Held(uint32_t position) const { return held_[position] != 0; }

  // Required: position inside this receiver's playback range.
  bool Required(uint32_t id) const { return PositionOf(id) >= start_position_; }

  // The sliding request window at one instant, with its bounds computed once
  // so that testing a candidate costs a few compares. The bounds are a
  // snapshot (a later MarkHeld or a later `t` does not move them); take a
  // new window after either.
  struct RequestWindow {
    uint32_t num_positions = 0;
    uint32_t next_needed = 0;  // first position of the window
    uint32_t end = 0;          // next_needed + window_blocks, exclusive
    uint32_t live_edge = 0;    // LiveEdge(t), inclusive
    const char* held = nullptr;

    // The block's position is inside [next_needed, end), not yet held, and
    // released (or being released) at the source.
    bool Contains(uint32_t id) const {
      const uint32_t pos = id < num_positions ? id : id % num_positions;
      return pos >= next_needed && pos < end && pos <= live_edge && held[pos] == 0;
    }
  };
  RequestWindow WindowAt(SimTime t) const;

  // Sliding-window eligibility at time `t`; see RequestWindow::Contains.
  bool Eligible(uint32_t id, SimTime t) const { return WindowAt(t).Contains(id); }

 private:
  StreamingSpec spec_;
  uint32_t num_positions_ = 0;
  SimTime block_duration_ = 0;
  SimTime session_start_ = 0;
  SimTime join_time_ = 0;
  uint32_t start_position_ = 0;
  uint32_t next_needed_ = 0;
  std::vector<char> held_;
};

// Post-run playback accounting for one receiver (AssembleSessionResult).
struct PlaybackStats {
  double stall_sec = 0.0;      // total rebuffer time (initial buffer excluded)
  int missed_deadline = 0;     // positions late against the *fixed* schedule
  bool finished = false;       // playback consumed every required position
};

// Simulates playback over the recorded first-arrival times (`position_arrival`,
// indexed by position, -1 = never arrived; an empty vector means no block ever
// arrived). Playback starts at `join + startup_buffer`; a missing position
// stalls playback until it arrives (or `run_deadline`, after which playback
// abandons). Missed-deadline counts are taken against the fixed non-stall-
// shifted schedule `join + buffer + (p - p0) * block_duration`, so one long
// stall early on does not absolve every later block.
PlaybackStats ComputePlaybackStats(const StreamingSpec& spec, uint32_t num_positions,
                                   int64_t block_bytes, SimTime session_start, SimTime join_time,
                                   const std::vector<SimTime>& position_arrival,
                                   SimTime run_deadline);

}  // namespace bullet

#endif  // SRC_OVERLAY_STREAMING_H_
