#include "src/overlay/streaming.h"

#include <algorithm>

#include "src/common/logging.h"

namespace bullet {

namespace {

SimTime BlockDuration(const StreamingSpec& spec, int64_t block_bytes) {
  const double bits = static_cast<double>(block_bytes) * 8.0;
  return SecToSim(bits / (spec.bitrate_mbps * 1e6));
}

}  // namespace

StreamPlayback::StreamPlayback(const StreamingSpec& spec, uint32_t num_positions,
                               int64_t block_bytes, SimTime session_start, SimTime join_time)
    : spec_(spec),
      num_positions_(num_positions),
      block_duration_(BlockDuration(spec, block_bytes)),
      session_start_(session_start),
      join_time_(join_time),
      held_(num_positions, 0) {
  BULLET_CHECK(num_positions_ > 0 && "a streaming session needs at least one position");
  BULLET_CHECK(spec_.bitrate_mbps > 0 && spec_.window_blocks > 0 &&
               "streaming bitrate and window must be positive");
  BULLET_CHECK(block_duration_ > 0 && "stream bitrate too high for this block size");
  // Catch up from the live edge: required playback starts at the position the
  // source is releasing when this receiver joins. The final position is always
  // required, so even a very late joiner has something to play.
  start_position_ = std::min(LiveEdge(join_time_), num_positions_ - 1);
  next_needed_ = start_position_;
}

uint32_t StreamPlayback::LiveEdge(SimTime t) const {
  if (t <= session_start_) {
    return 0;
  }
  const int64_t released = (t - session_start_) / block_duration_;
  return static_cast<uint32_t>(
      std::min<int64_t>(released, static_cast<int64_t>(num_positions_)));
}

uint64_t StreamPlayback::BlocksReleasable(SimTime t) const {
  if (t < session_start_) {
    return 0;
  }
  return static_cast<uint64_t>((t - session_start_) / block_duration_) + 1;
}

bool StreamPlayback::MarkHeld(uint32_t position) {
  if (position >= num_positions_ || held_[position]) {
    return false;
  }
  held_[position] = 1;
  while (next_needed_ < num_positions_ && held_[next_needed_]) {
    ++next_needed_;
  }
  return true;
}

StreamPlayback::RequestWindow StreamPlayback::WindowAt(SimTime t) const {
  RequestWindow w;
  w.num_positions = num_positions_;
  // Positions below next_needed are played or held (or before this receiver's
  // range); positions at or past `end` are retained, eligible in a later window.
  w.next_needed = next_needed_;
  w.end = next_needed_ + static_cast<uint32_t>(spec_.window_blocks);
  w.live_edge = LiveEdge(t);
  w.held = held_.data();
  return w;
}

PlaybackStats ComputePlaybackStats(const StreamingSpec& spec, uint32_t num_positions,
                                   int64_t block_bytes, SimTime session_start, SimTime join_time,
                                   const std::vector<SimTime>& position_arrival,
                                   SimTime run_deadline) {
  const StreamPlayback ref(spec, num_positions, block_bytes, session_start, join_time);
  const SimTime dur = ref.block_duration();
  const SimTime play_start = join_time + SecToSim(spec.startup_buffer_sec);
  const uint32_t p0 = ref.start_position();

  PlaybackStats stats;
  SimTime clock = play_start;  // stall-shifted playback clock
  bool abandoned = false;
  for (uint32_t p = p0; p < num_positions; ++p) {
    const SimTime arrival =
        p < position_arrival.size() ? position_arrival[p] : static_cast<SimTime>(-1);
    // Fixed (non-shifted) schedule: the instant the player needs position p.
    const SimTime fixed_due = play_start + static_cast<SimTime>(p - p0) * dur;
    if (arrival < 0 || arrival > fixed_due) {
      ++stats.missed_deadline;
    }
    if (abandoned) {
      continue;  // stall already charged through the run deadline
    }
    if (arrival < 0 || arrival > run_deadline) {
      // Never arrived: playback waits until the run ends, then abandons.
      stats.stall_sec += SimToSec(std::max<SimTime>(0, run_deadline - clock));
      abandoned = true;
      continue;
    }
    if (arrival > clock) {
      stats.stall_sec += SimToSec(arrival - clock);
      clock = arrival;
    }
    clock += dur;
  }
  stats.finished = !abandoned && clock <= run_deadline;
  return stats;
}

}  // namespace bullet
