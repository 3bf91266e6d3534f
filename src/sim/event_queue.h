// Discrete-event core. Callbacks run in (time, sequence) order; the sequence
// number makes execution order deterministic among same-time events.
//
// Layout: the heap holds only 24-byte plain keys {at, seq, slot}, a 4-ary
// min-heap with hole sifts (a pop walks the hole down to a leaf along the
// earliest children, then sifts the last key up), so a sift step copies a key
// and never moves a closure. Each closure is built by Schedule() directly in a
// slot of a closure store whose storage never moves: fixed-size chunks that are
// only ever added, plus a LIFO free list. A popped event runs in place, and its
// slot is released only after its callback returns, because the callback may
// Schedule() and grow the store. The (time, seq) key is a strict total order
// (seq is unique), so the execution sequence is independent of the heap's
// layout: changing the layout cannot change a result.
//
// Cancellation: each slot carries its own cancel state and a generation that is
// bumped when the slot is released. An EventId names the slot and the generation
// it was issued under, so the id of a fired, cancelled or never-issued event is a
// no-op in Cancel() even after its slot is reused. A cancelled event's closure is
// destroyed at once; its key stays in the heap and is drained when it reaches the
// top, which then releases the slot. The queue's memory is therefore bounded by
// its peak number of pending events (live or cancelled-but-undrained), not by the
// number of events it has ever scheduled. Every closure is destroyed exactly
// once: after it runs, when it is cancelled, or with the queue.
//
// Thread-safety: none — an EventQueue belongs to exactly one Network and is
// driven from one thread. The sweep engine gets its parallelism from whole-run
// isolation (one network + queue per worker), never from sharing a queue.
//
// Profiling: Schedule() counts into the `event_schedule` phase and RunUntil()
// wraps callback execution in an `event_dispatch` timed scope
// (src/common/profiler.h). Both compile to nothing without -DBULLET_PROFILE=ON,
// and in profiled builds they only read/update counters — event order, times
// and results are bit-identical with and without profiling.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace bullet {

using EventId = uint64_t;

// A type-erased callable built in place, which never moves once built: the
// event queue's closure store constructs each event's closure directly in its
// slot. Unlike std::function it owns move-only captures (a delivery closure
// holds its unique_ptr<Message> directly). Every closure lives in the wrapper
// itself, so scheduling never allocates; a closure over kInlineBytes fails to
// compile, and a caller with more state captures a pointer to it.
//
// 40 inline bytes make the wrapper 48 bytes and an EventQueue slot 64 (a
// 256-slot chunk is 16 KB). The network's own closures are at most 32 bytes.
class UniqueFunction {
 public:
  static constexpr size_t kInlineBytes = 40;

  UniqueFunction() = default;
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;
  ~UniqueFunction() { Reset(); }

  // Builds `f` in this wrapper, which must be empty.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t),
                  "an event closure outgrew the inline buffer: capture a pointer to its state");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    vtable_ = VTableFor<Fn>();
  }

  // Destroys the held callable, if any.
  void Reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  void operator()() { vtable_->invoke(buf_); }

 private:
  struct VTable {
    void (*invoke)(unsigned char*);
    void (*destroy)(unsigned char*);
  };

  template <typename Fn>
  static const VTable* VTableFor() {
    static const VTable vt = {
        [](unsigned char* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
        [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
    };
    return &vt;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

class EventQueue {
 public:
  // Slots per closure-store chunk; the store grows one chunk at a time.
  static constexpr uint32_t kSlotsPerChunk = 256;

  SimTime now() const { return now_; }

  // Schedules `cb` at absolute simulated time `at` (clamped to now). Returns an id
  // usable with Cancel(). The closure is built in its slot and never moves.
  template <typename F>
  EventId Schedule(SimTime at, F&& cb) {
    const uint32_t s = AcquireSlot();
    Slot& slot = SlotAt(s);
    slot.fn.Emplace(std::forward<F>(cb));
    return Push(at, s, slot);
  }
  template <typename F>
  EventId ScheduleAfter(SimTime delay, F&& cb) {
    return Schedule(now_ + delay, std::forward<F>(cb));
  }

  // Cancels a pending event and destroys its closure. Cancelling an already-fired,
  // already-cancelled or never-issued id is a no-op.
  void Cancel(EventId id);

  bool Empty() const { return live_ == 0; }
  size_t pending() const { return live_; }

  // Runs events until the queue is empty, `until` is passed, or Stop() is called.
  // Returns the number of events executed.
  uint64_t RunUntil(SimTime until);

  // Requests RunUntil to return after the current event completes.
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

 private:
  static constexpr uint32_t kChunkShift = 8;
  static_assert(kSlotsPerChunk == (1u << kChunkShift));
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // Heap key: (at, seq) is a strict total order; `slot` locates the closure.
  struct Key {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };

  struct Slot {
    UniqueFunction fn;
    // Generation carried by the ids of this slot's current event; bumped (never
    // to 0, so id 0 is never issued) each time the slot is released.
    uint32_t gen = 1;
    uint32_t next_free = kNoSlot;
    // Scheduled and neither fired nor cancelled.
    bool pending = false;
  };
  // Guards routed_shared's peak RSS: BitTorrent's connection storm leaves 109
  // chunks (27,904 slots) allocated at its live-heap peak (seed 1701), 1.8 MB
  // at 16,400 bytes a chunk.
  static_assert(sizeof(Slot) <= 64, "an event slot outgrew 64 bytes");

  Slot& SlotAt(uint32_t s) { return chunks_[s >> kChunkShift][s & (kSlotsPerChunk - 1)]; }

  uint32_t AcquireSlot() {
    if (free_head_ == kNoSlot) {
      AddChunk();
    }
    const uint32_t s = free_head_;
    free_head_ = SlotAt(s).next_free;
    return s;
  }

  void AddChunk();
  EventId Push(SimTime at, uint32_t s, Slot& slot);
  void Release(uint32_t s, Slot& slot);
  void PopTop();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;  // pending (not cancelled, not fired) events
  bool stopped_ = false;
  std::vector<Key> heap_;  // 4-ary min-heap: children of i are 4i+1 .. 4i+4
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace bullet

#endif  // SRC_SIM_EVENT_QUEUE_H_
