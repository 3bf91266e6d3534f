#include "src/sim/event_queue.h"

#include "src/common/logging.h"
#include "src/common/profiler.h"

namespace bullet {
namespace {

constexpr uint32_t kArity = 4;

// (at, seq) as one 128-bit integer (times are never negative), so a compare is
// branch-free and the sifts' child choices compile to conditional moves.
template <typename Key>
bool Earlier(const Key& a, const Key& b) {
  using U128 = unsigned __int128;
  return ((U128{static_cast<uint64_t>(a.at)} << 64) | a.seq) <
         ((U128{static_cast<uint64_t>(b.at)} << 64) | b.seq);
}

}  // namespace

void EventQueue::AddChunk() {
  BULLET_CHECK(chunks_.size() < (kNoSlot >> kChunkShift));  // slot ids fit below kNoSlot
  const uint32_t base = static_cast<uint32_t>(chunks_.size()) * kSlotsPerChunk;
  chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
  Slot* chunk = chunks_.back().get();
  for (uint32_t i = 0; i + 1 < kSlotsPerChunk; ++i) {
    chunk[i].next_free = base + i + 1;
  }
  chunk[kSlotsPerChunk - 1].next_free = free_head_;
  free_head_ = base;
}

EventId EventQueue::Push(SimTime at, uint32_t s, Slot& slot) {
  BULLET_PROFILE_COUNT(ProfilePhase::kEventSchedule);
  if (at < now_) {
    at = now_;
  }
  slot.pending = true;
  ++live_;
  const Key key{at, next_seq_++, s};
  // Sift the hole up from the new leaf.
  size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Earlier(key, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  return (static_cast<EventId>(slot.gen) << 32) | s;
}

void EventQueue::PopTop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  Key* h = heap_.data();
  // Walk the hole from the root to a leaf along the earliest children, then
  // sift `last` (a leaf until now, so usually late) up from there: the walk
  // needs no comparison against `last`, and its child choices are branch-free.
  size_t i = 0;
  for (;;) {
    const size_t first = kArity * i + 1;
    if (first + kArity <= n) {
      const size_t a = first + (Earlier(h[first + 1], h[first]) ? 1 : 0);
      const size_t b = first + 2 + (Earlier(h[first + 3], h[first + 2]) ? 1 : 0);
      const size_t best = Earlier(h[b], h[a]) ? b : a;
      h[i] = h[best];
      i = best;
      continue;
    }
    if (first < n) {  // a partial group: its members are leaves
      size_t best = first;
      for (size_t c = first + 1; c < n; ++c) {
        best = Earlier(h[c], h[best]) ? c : best;
      }
      h[i] = h[best];
      i = best;
    }
    break;
  }
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Earlier(last, h[parent])) {
      break;
    }
    h[i] = h[parent];
    i = parent;
  }
  h[i] = last;
}

void EventQueue::Release(uint32_t s, Slot& slot) {
  slot.fn.Reset();
  slot.gen = slot.gen + 1 == 0 ? 1 : slot.gen + 1;
  slot.next_free = free_head_;
  free_head_ = s;
}

void EventQueue::Cancel(EventId id) {
  const uint64_t s = id & 0xffffffffULL;
  if (s >= static_cast<uint64_t>(chunks_.size()) * kSlotsPerChunk) {
    return;  // never issued
  }
  Slot& slot = SlotAt(static_cast<uint32_t>(s));
  if (!slot.pending || slot.gen != (id >> 32)) {
    return;  // fired, cancelled, or an id from an earlier use of the slot
  }
  slot.pending = false;
  --live_;
  slot.fn.Reset();
}

uint64_t EventQueue::RunUntil(SimTime until) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!stopped_ && !heap_.empty()) {
    const Key top = heap_.front();
    Slot& slot = SlotAt(top.slot);
    // Cancelled keys are drained whenever they reach the top, even past `until`.
    if (!slot.pending) {
      PopTop();
      Release(top.slot, slot);
      continue;
    }
    if (top.at > until) {
      break;
    }
    PopTop();
    now_ = top.at;
    slot.pending = false;
    --live_;
    {
      BULLET_PROFILE_SCOPE(ProfilePhase::kEventDispatch);
      slot.fn();
    }
    // `slot` is still valid: the callback may have added chunks, but chunks
    // never move.
    Release(top.slot, slot);
    ++executed;
  }
  if (now_ < until && heap_.empty()) {
    now_ = until;
  }
  return executed;
}

}  // namespace bullet
