// StreamPlayback position/window math and post-run playback (stall / missed-
// deadline) accounting — the deadline/streaming dissemination mode's core.

#include "src/overlay/streaming.h"

#include <gtest/gtest.h>

#include <vector>

namespace bullet {
namespace {

// 16 KB blocks at 2 Mbps: 16384 * 8 / 2e6 = 65.536 ms per position.
constexpr int64_t kBlockBytes = 16 * 1024;

StreamingSpec Spec(double bitrate_mbps = 2.0, int window = 8, double buffer_sec = 1.0) {
  StreamingSpec s;
  s.bitrate_mbps = bitrate_mbps;
  s.window_blocks = window;
  s.startup_buffer_sec = buffer_sec;
  return s;
}

TEST(StreamPlayback, PositionsWrapEncodedIdSpace) {
  const StreamPlayback p(Spec(), /*num_positions=*/100, kBlockBytes, 0, 0);
  EXPECT_EQ(p.PositionOf(0), 0u);
  EXPECT_EQ(p.PositionOf(99), 99u);
  EXPECT_EQ(p.PositionOf(100), 0u);   // second encoded pass refills position 0
  EXPECT_EQ(p.PositionOf(750), 50u);
}

TEST(StreamPlayback, LiveEdgeFollowsReleaseClock) {
  const StreamPlayback p(Spec(), 100, kBlockBytes, /*session_start=*/SecToSim(10.0), SecToSim(10.0));
  const SimTime dur = p.block_duration();
  EXPECT_GT(dur, 0);
  EXPECT_EQ(p.LiveEdge(0), 0u);              // before the session starts
  EXPECT_EQ(p.LiveEdge(SecToSim(10.0)), 0u); // position 0 still being released
  EXPECT_EQ(p.LiveEdge(SecToSim(10.0) + dur), 1u);
  EXPECT_EQ(p.LiveEdge(SecToSim(10.0) + 5 * dur + dur / 2), 5u);
  // Capped at num_positions; BlocksReleasable keeps counting (encoded minting).
  EXPECT_EQ(p.LiveEdge(SecToSim(10.0) + 500 * dur), 100u);
  EXPECT_EQ(p.BlocksReleasable(SecToSim(10.0) + 500 * dur), 501u);
}

TEST(StreamPlayback, LateJoinerStartsAtLiveEdge) {
  const SimTime start = 0;
  const StreamPlayback early(Spec(), 100, kBlockBytes, start, 0);
  EXPECT_EQ(early.start_position(), 0u);
  const SimTime dur = early.block_duration();
  const StreamPlayback late(Spec(), 100, kBlockBytes, start, start + 20 * dur);
  EXPECT_EQ(late.start_position(), 20u);
  EXPECT_FALSE(late.Required(5));   // positions before the join's live edge
  EXPECT_TRUE(late.Required(20));
  EXPECT_TRUE(late.Required(120));  // wraps to position 20
  // A joiner far past the stream's end still needs the final position.
  const StreamPlayback very_late(Spec(), 100, kBlockBytes, start, start + 5000 * dur);
  EXPECT_EQ(very_late.start_position(), 99u);
  EXPECT_FALSE(very_late.Complete());
}

TEST(StreamPlayback, SlidingWindowEligibility) {
  const StreamPlayback p(Spec(2.0, /*window=*/8), 100, kBlockBytes, 0, 0);
  const SimTime dur = p.block_duration();
  const SimTime t = 50 * dur;  // live edge at 50, window [0, 8)
  EXPECT_TRUE(p.Eligible(0, t));
  EXPECT_TRUE(p.Eligible(7, t));
  EXPECT_FALSE(p.Eligible(8, t)) << "outside the window";
  EXPECT_FALSE(p.Eligible(49, t));
  // Not yet released: window is open but the source hasn't minted it.
  EXPECT_FALSE(p.Eligible(3, 2 * dur + dur / 2))
      << "position 3 unreleased at live edge 2";
  EXPECT_TRUE(p.Eligible(2, 2 * dur + dur / 2));
}

TEST(StreamPlayback, MarkHeldAdvancesWindow) {
  StreamPlayback p(Spec(2.0, /*window=*/4), 10, kBlockBytes, 0, 0);
  const SimTime late = SecToSim(1000.0);  // everything released
  EXPECT_TRUE(p.MarkHeld(0));
  EXPECT_FALSE(p.MarkHeld(0)) << "second arrival of a position is not fresh";
  EXPECT_EQ(p.next_needed(), 1u);
  // Out-of-order hold: the window advances only over the contiguous prefix.
  EXPECT_TRUE(p.MarkHeld(2));
  EXPECT_EQ(p.next_needed(), 1u);
  EXPECT_FALSE(p.Eligible(2, late)) << "held positions are not requestable";
  EXPECT_TRUE(p.Eligible(4, late)) << "window [1, 5) after holding 0";
  EXPECT_FALSE(p.Eligible(5, late));
  EXPECT_TRUE(p.MarkHeld(1));
  EXPECT_EQ(p.next_needed(), 3u) << "skips the already-held position 2";
  for (uint32_t pos = 3; pos < 10; ++pos) {
    EXPECT_FALSE(p.Complete());
    p.MarkHeld(pos);
  }
  EXPECT_TRUE(p.Complete());
  EXPECT_EQ(p.next_needed(), 10u);
}

// The eligibility arithmetic as it stood before RequestWindow, spelled out
// through the public accessors: the reference the window must match.
bool DirectEligible(const StreamPlayback& p, uint32_t id, SimTime t) {
  const uint32_t pos = p.PositionOf(id);
  if (pos < p.next_needed() || p.Held(pos)) {
    return false;
  }
  if (pos >= p.next_needed() + static_cast<uint32_t>(p.spec().window_blocks)) {
    return false;
  }
  return pos <= p.LiveEdge(t);
}

// Every id of three encoded passes at every instant around the session: one
// block duration before the start, the start itself, each release boundary
// and mid-position, and well past the last release.
void ExpectWindowMatchesDirect(const StreamPlayback& p, SimTime session_start) {
  const SimTime dur = p.block_duration();
  std::vector<SimTime> times = {0, session_start - dur, session_start - 1, session_start,
                                session_start + 1000 * dur};
  for (SimTime k = 0; k <= p.num_positions() + 1; ++k) {
    times.push_back(session_start + k * dur);
    times.push_back(session_start + k * dur + dur / 2);
  }
  for (const SimTime t : times) {
    const StreamPlayback::RequestWindow w = p.WindowAt(t);
    for (uint32_t id = 0; id < 3 * p.num_positions(); ++id) {
      ASSERT_EQ(w.Contains(id), DirectEligible(p, id, t)) << "id " << id << " t " << t;
      ASSERT_EQ(p.Eligible(id, t), DirectEligible(p, id, t)) << "id " << id << " t " << t;
    }
  }
}

TEST(StreamPlayback, RequestWindowMatchesDirectEligibility) {
  const SimTime start = SecToSim(3.0);
  const StreamPlayback probe(Spec(), 40, kBlockBytes, start, start);
  const SimTime dur = probe.block_duration();
  // window 8 inside a 40-position stream; window 1 (the window is its own last
  // slot); a window wider than the stream.
  for (const int window : {8, 1, 64}) {
    SCOPED_TRACE(testing::Message() << "window " << window);
    // An on-time joiner and a late joiner whose start position is 12, so ids
    // below it (and their encoded wraps) are out of range.
    for (const SimTime join : {start, start + 12 * dur + dur / 3}) {
      StreamPlayback p(Spec(2.0, window), 40, kBlockBytes, start, join);
      ExpectWindowMatchesDirect(p, start);
      // Out-of-order holds: the window's first slot stays put while held
      // positions inside and just past it drop out.
      for (const uint32_t pos : {p.start_position() + 2, p.start_position() + 5,
                                 p.start_position() + 8}) {
        p.MarkHeld(pos);
      }
      ExpectWindowMatchesDirect(p, start);
      // The contiguous prefix fills: next_needed jumps past the held run.
      for (uint32_t pos = p.start_position(); pos < p.start_position() + 3; ++pos) {
        p.MarkHeld(pos);
      }
      EXPECT_EQ(p.next_needed(), p.start_position() + 3);
      ExpectWindowMatchesDirect(p, start);
      // Complete: nothing is eligible any more.
      for (uint32_t pos = 0; pos < 40; ++pos) {
        p.MarkHeld(pos);
      }
      ASSERT_TRUE(p.Complete());
      ExpectWindowMatchesDirect(p, start);
    }
  }
}

TEST(StreamPlayback, RequestWindowEdges) {
  const SimTime start = SecToSim(3.0);
  StreamPlayback p(Spec(2.0, /*window=*/4), 10, kBlockBytes, start, start);
  const SimTime dur = p.block_duration();
  // Before the session starts the live edge is 0: only position 0 is open.
  const StreamPlayback::RequestWindow early = p.WindowAt(start - dur);
  EXPECT_EQ(early.live_edge, 0u);
  EXPECT_TRUE(early.Contains(0));
  EXPECT_FALSE(early.Contains(1));
  EXPECT_TRUE(early.Contains(10)) << "encoded id 10 wraps onto position 0";
  // At live edge 3 the window [0, 4) is fully released: 3 is both the live
  // edge and the window's last slot; 4 is past the window.
  const StreamPlayback::RequestWindow w = p.WindowAt(start + 3 * dur);
  EXPECT_EQ(w.live_edge, 3u);
  EXPECT_EQ(w.end, 4u);
  EXPECT_TRUE(w.Contains(3));
  EXPECT_TRUE(w.Contains(13));
  EXPECT_FALSE(w.Contains(4));
  // A held position inside the window is not requestable.
  p.MarkHeld(2);
  EXPECT_FALSE(p.WindowAt(start + 3 * dur).Contains(2));
  EXPECT_TRUE(p.WindowAt(start + 3 * dur).Contains(1));
}

TEST(PlaybackStats, NoStallWhenBlocksBeatTheSchedule) {
  const StreamingSpec spec = Spec(2.0, 8, /*buffer=*/1.0);
  const StreamPlayback ref(spec, 10, kBlockBytes, 0, 0);
  const SimTime dur = ref.block_duration();
  std::vector<SimTime> arrivals;
  for (uint32_t pos = 0; pos < 10; ++pos) {
    arrivals.push_back(static_cast<SimTime>(pos) * dur / 2);  // twice realtime
  }
  const PlaybackStats st =
      ComputePlaybackStats(spec, 10, kBlockBytes, 0, 0, arrivals, SecToSim(3600.0));
  EXPECT_DOUBLE_EQ(st.stall_sec, 0.0);
  EXPECT_EQ(st.missed_deadline, 0);
  EXPECT_TRUE(st.finished);
}

TEST(PlaybackStats, LateBlockStallsAndMissesFixedDeadline) {
  const StreamingSpec spec = Spec(2.0, 8, /*buffer=*/1.0);
  const StreamPlayback ref(spec, 4, kBlockBytes, 0, 0);
  const SimTime dur = ref.block_duration();
  const SimTime play_start = SecToSim(1.0);
  // Position 1 arrives one second after its playback instant; 0, 2, 3 early.
  std::vector<SimTime> arrivals = {0, play_start + dur + SecToSim(1.0), 0, 0};
  const PlaybackStats st =
      ComputePlaybackStats(spec, 4, kBlockBytes, 0, 0, arrivals, SecToSim(3600.0));
  EXPECT_NEAR(st.stall_sec, 1.0, 1e-9);
  // Positions 2 and 3 were already held, so only position 1 is late against
  // the fixed schedule (the stall does not shift later deadlines).
  EXPECT_EQ(st.missed_deadline, 1);
  EXPECT_TRUE(st.finished);
}

TEST(PlaybackStats, StallShiftsClockNotDeadlines) {
  const StreamingSpec spec = Spec(2.0, 8, /*buffer=*/1.0);
  const StreamPlayback ref(spec, 4, kBlockBytes, 0, 0);
  const SimTime dur = ref.block_duration();
  const SimTime play_start = SecToSim(1.0);
  // Every position arrives exactly when the *fixed* schedule needs the one
  // after it: each is late, but the stall-shifted clock only stalls once.
  std::vector<SimTime> arrivals;
  for (SimTime pos = 0; pos < 4; ++pos) {
    arrivals.push_back(play_start + (pos + 1) * dur);
  }
  const PlaybackStats st =
      ComputePlaybackStats(spec, 4, kBlockBytes, 0, 0, arrivals, SecToSim(3600.0));
  EXPECT_EQ(st.missed_deadline, 4) << "fixed deadlines are not absolved by stalls";
  EXPECT_NEAR(st.stall_sec, SimToSec(dur), 1e-9) << "the shifted clock stalls only once";
  EXPECT_TRUE(st.finished);
}

TEST(PlaybackStats, NeverArrivedAbandonsAtRunDeadline) {
  const StreamingSpec spec = Spec(2.0, 8, /*buffer=*/1.0);
  const SimTime run_deadline = SecToSim(100.0);
  // Position 1 never arrives (-1): playback stalls from its playhead to the
  // run deadline, later positions count missed but charge no further stall.
  const StreamPlayback ref(spec, 4, kBlockBytes, 0, 0);
  const SimTime dur = ref.block_duration();
  const SimTime play_start = SecToSim(1.0);
  std::vector<SimTime> arrivals = {0, -1, 0, 0};
  const PlaybackStats st =
      ComputePlaybackStats(spec, 4, kBlockBytes, 0, 0, arrivals, run_deadline);
  EXPECT_EQ(st.missed_deadline, 1) << "positions 2/3 arrived before their deadlines";
  EXPECT_NEAR(st.stall_sec, SimToSec(run_deadline - (play_start + dur)), 1e-9);
  EXPECT_FALSE(st.finished);
}

TEST(PlaybackStats, EmptyArrivalsMeansNothingEverArrived) {
  const StreamingSpec spec = Spec(2.0, 8, /*buffer=*/1.0);
  const PlaybackStats st = ComputePlaybackStats(spec, 10, kBlockBytes, 0, 0,
                                                std::vector<SimTime>{}, SecToSim(50.0));
  EXPECT_EQ(st.missed_deadline, 10);
  EXPECT_FALSE(st.finished);
  EXPECT_NEAR(st.stall_sec, 50.0 - 1.0, 1e-9);
}

TEST(PlaybackStats, LateJoinerOnlyAccountsRequiredPositions) {
  const StreamingSpec spec = Spec(2.0, 8, /*buffer=*/1.0);
  const StreamPlayback ref(spec, 10, kBlockBytes, 0, 0);
  const SimTime dur = ref.block_duration();
  const SimTime join = 6 * dur;  // start position 6
  std::vector<SimTime> arrivals(10, -1);
  for (uint32_t pos = 6; pos < 10; ++pos) {
    arrivals[pos] = join + SecToSim(0.1);
  }
  const PlaybackStats st =
      ComputePlaybackStats(spec, 10, kBlockBytes, 0, join, arrivals, SecToSim(3600.0));
  EXPECT_EQ(st.missed_deadline, 0) << "positions before the join are not required";
  EXPECT_DOUBLE_EQ(st.stall_sec, 0.0);
  EXPECT_TRUE(st.finished);
}

}  // namespace
}  // namespace bullet
