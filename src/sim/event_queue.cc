#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/profiler.h"

namespace bullet {

EventId EventQueue::Schedule(SimTime at, Callback cb) {
  BULLET_PROFILE_COUNT(ProfilePhase::kEventSchedule);
  if (at < now_) {
    at = now_;
  }
  const EventId id = next_seq_ + 1;
  heap_.push_back(Entry{at, next_seq_, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
  state_.push_back(EventState::kPending);
  ++next_seq_;
  ++live_;
  return id;
}

void EventQueue::Cancel(EventId id) {
  if (id == 0 || id > state_.size()) {
    return;  // never scheduled
  }
  EventState& st = state_[static_cast<size_t>(id - 1)];
  if (st == EventState::kPending) {
    st = EventState::kDone;
    --live_;
  }
}

uint64_t EventQueue::RunUntil(SimTime until) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!stopped_ && !heap_.empty()) {
    // Cancelled entries are popped lazily whenever they reach the top, even past
    // `until` (mirrors the previous implementation's drain of dead entries).
    EventState& st = state_[static_cast<size_t>(heap_.front().seq)];
    if (st == EventState::kDone) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
      heap_.pop_back();
      continue;
    }
    if (heap_.front().at > until) {
      break;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    now_ = entry.at;
    st = EventState::kDone;
    --live_;
    {
      BULLET_PROFILE_SCOPE(ProfilePhase::kEventDispatch);
      entry.fn();
    }
    ++executed;
  }
  if (now_ < until && heap_.empty()) {
    now_ = until;
  }
  return executed;
}

}  // namespace bullet
