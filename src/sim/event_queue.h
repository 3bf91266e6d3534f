// Discrete-event core. A binary heap of (time, sequence)-ordered callbacks; the
// sequence number makes execution order deterministic among same-time events.
//
// Hot-path design (PR 3): callbacks are stored inline in the heap entries as
// move-only closures (UniqueFunction) instead of behind a per-event
// unordered_map<id, std::function> — scheduling an event costs one heap push and
// zero rehashes, and closures capturing a unique_ptr (message deliveries) need no
// shared_ptr wrapper. Cancellation is tracked in a flat per-id state array; ids
// are monotonic, so the array is append-only and O(1) to index. The (time, seq)
// key is a strict total order (seq is unique), so the execution sequence is
// independent of the heap's internal layout — this is what makes the
// representation swap byte-identical to the previous map-based implementation.
//
// Thread-safety: none — an EventQueue belongs to exactly one Network and is
// driven from one thread. The sweep engine gets its parallelism from whole-run
// isolation (one network + queue per worker), never from sharing a queue.
//
// Profiling: Schedule() counts into the `event_schedule` phase and RunNext()
// wraps callback execution in an `event_dispatch` timed scope
// (src/common/profiler.h). Both compile to nothing without -DBULLET_PROFILE=ON,
// and in profiled builds they only read/update counters — event order, times
// and results are bit-identical with and without profiling.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace bullet {

using EventId = uint64_t;

// Minimal move-only callable wrapper with inline storage. std::function requires
// copyable targets, which forced message-delivery closures to hold their
// unique_ptr<Message> behind a shared_ptr; this type owns move-only captures
// directly. Closures up to kInlineBytes live in the heap entry itself; larger
// ones fall back to a single heap allocation.
class UniqueFunction {
 public:
  static constexpr size_t kInlineBytes = 48;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, UniqueFunction>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vtable_ = InlineVTable<Fn>();
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      vtable_ = HeapVTable<Fn>();
    }
  }

  UniqueFunction(UniqueFunction&& o) noexcept {
    if (o.vtable_ != nullptr) {
      o.vtable_->relocate(o.buf_, buf_);
      vtable_ = o.vtable_;
      o.vtable_ = nullptr;
    }
  }

  UniqueFunction& operator=(UniqueFunction&& o) noexcept {
    if (this != &o) {
      Reset();
      if (o.vtable_ != nullptr) {
        o.vtable_->relocate(o.buf_, buf_);
        vtable_ = o.vtable_;
        o.vtable_ = nullptr;
      }
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { Reset(); }

  void operator()() { vtable_->invoke(buf_); }
  explicit operator bool() const { return vtable_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(unsigned char*);
    // Move-construct into `to` and destroy the source.
    void (*relocate)(unsigned char* from, unsigned char* to);
    void (*destroy)(unsigned char*);
  };

  template <typename Fn>
  static const VTable* InlineVTable() {
    static const VTable vt = {
        [](unsigned char* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
        [](unsigned char* from, unsigned char* to) {
          Fn* src = std::launder(reinterpret_cast<Fn*>(from));
          ::new (static_cast<void*>(to)) Fn(std::move(*src));
          src->~Fn();
        },
        [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
    };
    return &vt;
  }

  template <typename Fn>
  static const VTable* HeapVTable() {
    static const VTable vt = {
        [](unsigned char* b) { (**reinterpret_cast<Fn**>(b))(); },
        [](unsigned char* from, unsigned char* to) {
          *reinterpret_cast<Fn**>(to) = *reinterpret_cast<Fn**>(from);
        },
        [](unsigned char* b) { delete *reinterpret_cast<Fn**>(b); },
    };
    return &vt;
  }

  void Reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

class EventQueue {
 public:
  using Callback = UniqueFunction;

  SimTime now() const { return now_; }

  // Schedules `cb` at absolute simulated time `at` (clamped to now). Returns an id
  // usable with Cancel().
  EventId Schedule(SimTime at, Callback cb);
  EventId ScheduleAfter(SimTime delay, Callback cb) { return Schedule(now_ + delay, std::move(cb)); }

  // Cancels a pending event. Cancelling an already-fired or unknown id is a no-op.
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
  enum class EventState : uint8_t { kPending, kDone };

  struct Entry {
    SimTime at;
    uint64_t seq;  // unique => (at, seq) is a strict total order
    UniqueFunction fn;
    // Heap entries are ordered earliest-first; ties broken by insertion order.
    bool operator>(const Entry& o) const {
      if (at != o.at) {
        return at > o.at;
      }
      return seq > o.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;  // pending (not cancelled, not fired) events
  bool stopped_ = false;
  std::vector<Entry> heap_;
  // state_[seq] for every event ever scheduled; ids are seq + 1. Grows one byte
  // per event, which is bounded by the run's total event count.
  std::vector<EventState> state_;
};

}  // namespace bullet

#endif  // SRC_SIM_EVENT_QUEUE_H_
