#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace bullet {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(300, [&] { order.push_back(3); });
  q.Schedule(100, [&] { order.push_back(1); });
  q.Schedule(200, [&] { order.push_back(2); });
  q.RunUntil(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 1000);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(50, [&order, i] { order.push_back(i); });
  }
  q.RunUntil(100);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.Schedule(100, [&] { ++fired; });
  q.Schedule(200, [&] { ++fired; });
  q.RunUntil(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 100);
  q.RunUntil(300);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue q;
  q.Schedule(100, [] {});
  q.RunUntil(100);
  SimTime fired_at = -1;
  q.Schedule(50, [&] { fired_at = q.now(); });  // in the past
  q.RunUntil(200);
  EXPECT_EQ(fired_at, 100);
}

TEST(EventQueue, Cancel) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.Schedule(100, [&] { ++fired; });
  q.Schedule(200, [&] { ++fired; });
  q.Cancel(id);
  q.RunUntil(1000);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelUnknownIsNoop) {
  EventQueue q;
  q.Cancel(9999);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, StopInsideEvent) {
  EventQueue q;
  int fired = 0;
  q.Schedule(100, [&] {
    ++fired;
    q.Stop();
  });
  q.Schedule(200, [&] { ++fired; });
  q.RunUntil(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.stopped());
  // Resumable after stop.
  q.RunUntil(1000);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<SimTime> fire_times;
  std::function<void()> chain = [&] {
    fire_times.push_back(q.now());
    if (fire_times.size() < 5) {
      q.ScheduleAfter(10, chain);
    }
  };
  q.Schedule(0, chain);
  q.RunUntil(1000);
  EXPECT_EQ(fire_times, (std::vector<SimTime>{0, 10, 20, 30, 40}));
}

TEST(EventQueue, PendingCount) {
  EventQueue q;
  EXPECT_EQ(q.pending(), 0u);
  const EventId a = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.pending(), 1u);
}

// Counts its own destruction; a moved-from instance counts nothing.
struct Counted {
  explicit Counted(int* destroyed) : destroyed(destroyed) {}
  Counted(Counted&& o) noexcept : destroyed(std::exchange(o.destroyed, nullptr)) {}
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (destroyed != nullptr) {
      ++*destroyed;
    }
  }
  int* destroyed;
};

// Each closure is destroyed exactly once: after it runs, when it is cancelled,
// or with the queue. `Pad` grows the closure up to the wrapper's inline limit.
template <size_t Pad>
void CheckClosureLifetimes() {
  int ran = 0;
  int cancelled = 0;
  int left = 0;
  int ran_while_running = -1;
  {
    EventQueue q;
    const std::array<char, Pad> pad{};
    const EventId a = q.Schedule(10, [c = Counted(&ran), pad, &ran, &ran_while_running] {
      ran_while_running = ran + pad[0];
    });
    const EventId b =
        q.Schedule(20, [c = Counted(&cancelled), pad] { ADD_FAILURE() << pad.size(); });
    q.Schedule(1000, [c = Counted(&left), pad] { ADD_FAILURE() << pad.size(); });

    q.Cancel(b);
    EXPECT_EQ(cancelled, 1);  // destroyed at Cancel, not when its key drains
    q.Cancel(b);
    EXPECT_EQ(q.RunUntil(100), 1u);
    EXPECT_EQ(ran_while_running, 0);  // alive while its callback ran
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(cancelled, 1);
    q.Cancel(a);
    q.Cancel(b);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(cancelled, 1);
    EXPECT_EQ(left, 0);
    EXPECT_EQ(q.pending(), 1u);
  }
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(cancelled, 1);
  EXPECT_EQ(left, 1);  // destroyed with the queue
}

TEST(EventQueue, EveryClosureIsDestroyedExactlyOnce) {
  CheckClosureLifetimes<1>();
  CheckClosureLifetimes<UniqueFunction::kInlineBytes - 3 * sizeof(void*)>();
}

// A running closure stays valid while its own callback grows the closure store
// by several chunks: the store's storage never moves.
TEST(EventQueue, RunningClosureSurvivesStoreGrowth) {
  EventQueue q;
  std::vector<uint32_t> read_back;
  const std::array<uint32_t, 6> captured = {11, 22, 33, 44, 55, 66};
  q.Schedule(5, [&q, &read_back, captured] {
    for (uint32_t i = 0; i < 4 * EventQueue::kSlotsPerChunk; ++i) {
      q.Schedule(10 + i % 7, [] {});
    }
    read_back.assign(captured.begin(), captured.end());
  });
  EXPECT_EQ(q.RunUntil(5), 1u);
  EXPECT_EQ(read_back, std::vector<uint32_t>(captured.begin(), captured.end()));
  EXPECT_EQ(q.pending(), 4 * EventQueue::kSlotsPerChunk);
  EXPECT_EQ(q.RunUntil(100), 4 * EventQueue::kSlotsPerChunk);
}

// The id of an event that fired, or was cancelled and drained, names a slot the
// queue reuses; cancelling it must leave the slot's new event pending.
TEST(EventQueue, StaleIdLeavesTheReusedSlotsEventPending) {
  EventQueue q;
  std::vector<EventId> stale;
  for (int i = 0; i < 100; ++i) {
    stale.push_back(q.Schedule(10, [] {}));
  }
  for (int i = 0; i < 50; ++i) {
    q.Cancel(stale[static_cast<size_t>(2 * i)]);
  }
  EXPECT_EQ(q.RunUntil(10), 50u);
  EXPECT_TRUE(q.Empty());

  int fired = 0;
  std::set<EventId> fresh;
  for (int i = 0; i < 100; ++i) {
    fresh.insert(q.Schedule(20, [&fired] { ++fired; }));
  }
  for (const EventId id : stale) {
    EXPECT_EQ(fresh.count(id), 0u);
    q.Cancel(id);
  }
  EXPECT_EQ(q.pending(), 100u);
  EXPECT_EQ(q.RunUntil(20), 100u);
  EXPECT_EQ(fired, 100);
}

// Reference model for the differential test: every scheduled event, live or
// cancelled, in a map ordered by (time, schedule order). Cancelled events are
// drained when they reach the front, as the queue's contract says, which is
// what decides whether RunUntil may advance now() to `until`.
class ReferenceQueue {
 public:
  SimTime now() const { return now_; }
  size_t pending() const { return live_; }
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  EventId Schedule(SimTime at, std::function<void()> cb) {
    const auto key = std::make_pair(at < now_ ? now_ : at, next_seq_++);
    by_id_.push_back(events_.emplace(key, Event{std::move(cb), true}).first);
    ++live_;
    return key.second + 1;
  }
  void Cancel(EventId id) {
    if (id == 0 || id > by_id_.size() || by_id_[id - 1] == events_.end()) {
      return;
    }
    Event& ev = by_id_[id - 1]->second;
    if (ev.live) {
      ev.live = false;
      --live_;
    }
  }

  uint64_t RunUntil(SimTime until) {
    stopped_ = false;
    uint64_t executed = 0;
    while (!stopped_ && !events_.empty()) {
      auto it = events_.begin();
      const uint64_t seq = it->first.second;
      if (!it->second.live) {
        by_id_[seq] = events_.end();
        events_.erase(it);
        continue;
      }
      if (it->first.first > until) {
        break;
      }
      now_ = it->first.first;
      std::function<void()> fn = std::move(it->second.fn);
      by_id_[seq] = events_.end();
      events_.erase(it);
      --live_;
      fn();
      ++executed;
    }
    if (now_ < until && events_.empty()) {
      now_ = until;
    }
    return executed;
  }

 private:
  struct Event {
    std::function<void()> fn;
    bool live;
  };
  using Events = std::map<std::pair<SimTime, uint64_t>, Event>;

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  bool stopped_ = false;
  Events events_;
  std::vector<Events::iterator> by_id_;
};

// One random script of operations, replayed against a queue type. Every random
// draw happens at the same point for both queues as long as they agree, so the
// logs match exactly when the queue under test honours the reference's order.
template <typename Q>
class Script {
 public:
  enum class Fate : uint8_t { kPending, kFired, kCancelled };
  struct CancelKinds {
    int pending = 0;
    int fired = 0;
    int cancelled = 0;
    int never_issued = 0;
  };

  explicit Script(uint64_t seed) : rng_(seed) {}

  std::vector<int64_t> Run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const uint64_t r = rng_.Next() % 12;
      if (r < 4) {
        ScheduleOne(q_.now() + static_cast<SimTime>(rng_.Next() % 121) - 20);
      } else if (r < 6) {
        CancelOne();
      } else if (r < 9) {
        RunWindow(q_.now() + static_cast<SimTime>(rng_.Next() % 80));
      } else if (r == 9) {
        RunWindow(q_.now());
      } else if (r == 10) {
        const SimTime at = q_.now() + static_cast<SimTime>(rng_.Next() % 30);
        for (uint64_t k = 0, n = 2 + rng_.Next() % 6; k < n; ++k) {
          ScheduleOne(at);
        }
      } else {
        q_.Stop();  // a Stop outside RunUntil is reset by the next RunUntil
      }
      log_.push_back(static_cast<int64_t>(q_.pending()));
    }
    RunWindow(INT64_MAX);
    return log_;
  }

  const CancelKinds& cancel_kinds() const { return kinds_; }

 private:
  void ScheduleOne(SimTime at) {
    const int64_t label = static_cast<int64_t>(ids_.size());
    const EventId id = q_.Schedule(at, [this, label] { Fire(label); });
    ids_.push_back(id);
    issued_.insert(id);
    fate_.push_back(Fate::kPending);
  }

  void CancelOne() {
    if (ids_.empty() || rng_.Next() % 5 == 0) {
      // A never-issued id: a random value, or one next to an issued id.
      EventId id = rng_.Next() % 3 == 0 ? 0 : rng_.Next();
      if (!ids_.empty() && rng_.Next() % 2 == 0) {
        id = ids_[rng_.Next() % ids_.size()] + 1;
      }
      while (issued_.count(id) != 0) {
        ++id;
      }
      const size_t before = q_.pending();
      q_.Cancel(id);
      log_.push_back(static_cast<int64_t>(before - q_.pending()));
      ++kinds_.never_issued;
      return;
    }
    // Mostly any issued id; sometimes the last one cancelled, again.
    const bool again = rng_.Next() % 8 == 0 && last_cancelled_ < ids_.size();
    const size_t label = again ? last_cancelled_ : rng_.Next() % ids_.size();
    const size_t before = q_.pending();
    q_.Cancel(ids_[label]);
    const size_t removed = before - q_.pending();
    log_.push_back(static_cast<int64_t>(removed));
    switch (fate_[label]) {
      case Fate::kPending:
        ++kinds_.pending;
        break;
      case Fate::kFired:
        ++kinds_.fired;
        break;
      case Fate::kCancelled:
        ++kinds_.cancelled;
        break;
    }
    if (removed == 1) {
      fate_[label] = Fate::kCancelled;
      last_cancelled_ = label;
    }
  }

  void RunWindow(SimTime until) {
    const uint64_t executed = q_.RunUntil(until);
    log_.push_back(-1);
    log_.push_back(static_cast<int64_t>(executed));
    log_.push_back(q_.now());
    log_.push_back(q_.stopped() ? 1 : 0);
  }

  void Fire(int64_t label) {
    fate_[static_cast<size_t>(label)] = Fate::kFired;
    log_.push_back(-2);
    log_.push_back(label);
    log_.push_back(q_.now());
    const uint64_t r = rng_.Next() % 16;
    if (r < 4 && ids_.size() < 20000) {
      for (uint64_t k = 0, n = 1 + rng_.Next() % 2; k < n; ++k) {
        ScheduleOne(q_.now() + static_cast<SimTime>(rng_.Next() % 41) - 10);
      }
    } else if (r < 6) {
      CancelOne();
    } else if (r == 6) {
      q_.Cancel(ids_[static_cast<size_t>(label)]);  // its own id: already fired
    } else if (r == 7) {
      q_.Stop();
    }
  }

  Q q_;
  Rng rng_;
  std::vector<EventId> ids_;  // by label, in schedule order
  std::set<EventId> issued_;
  std::vector<Fate> fate_;
  size_t last_cancelled_ = SIZE_MAX;
  std::vector<int64_t> log_;
  CancelKinds kinds_;
};

// Fired sequence, now(), pending() and RunUntil's counts all equal the
// reference's over random scripts mixing past/equal/future schedules, every
// kind of Cancel, RunUntil windows, Stop inside callbacks, and callbacks that
// schedule and cancel.
TEST(EventQueue, MatchesReferenceOrderingOnRandomScripts) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Script<EventQueue> real(seed);
    Script<ReferenceQueue> ref(seed);
    const std::vector<int64_t> got = real.Run(3000);
    const std::vector<int64_t> want = ref.Run(3000);
    size_t first_diff = 0;
    while (first_diff < got.size() && first_diff < want.size() &&
           got[first_diff] == want[first_diff]) {
      ++first_diff;
    }
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed << ", logs diverge at " << first_diff;
    ASSERT_EQ(first_diff, want.size()) << "seed " << seed;
    const auto& kinds = real.cancel_kinds();
    EXPECT_GT(kinds.pending, 0) << "seed " << seed;
    EXPECT_GT(kinds.fired, 0) << "seed " << seed;
    EXPECT_GT(kinds.cancelled, 0) << "seed " << seed;
    EXPECT_GT(kinds.never_issued, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bullet
