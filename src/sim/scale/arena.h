// Pooled arena allocation for mega-swarm per-node protocol state.
//
// At 10^5 members the per-node std::map peer tables dominate RSS: every entry
// is its own malloc (red-black node header + allocator metadata per peer), and
// the allocator never returns freed nodes to a shared pool. PooledArena hands
// out stable typed slots from chunked slabs with an intrusive free list, so a
// node's peer table costs a handful of slab allocations however often peers
// churn, and an ArenaCounter aggregates live/peak bytes across every node for
// the memory telemetry the harness reports (WorkloadResult::arena_bytes).

#ifndef SRC_SIM_SCALE_ARENA_H_
#define SRC_SIM_SCALE_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace bullet {

// Live/peak byte counter shared by many arenas (one per node-state container).
// Single-threaded like the network that owns it; updates happen only on
// slab/table growth, not per operation.
class ArenaCounter {
 public:
  void Add(int64_t delta) {
    current_ += delta;
    peak_ = std::max(peak_, current_);
  }
  int64_t current_bytes() const { return current_; }
  int64_t peak_bytes() const { return peak_; }

 private:
  int64_t current_ = 0;
  int64_t peak_ = 0;
};

// Chunked typed arena: stable addresses (slabs never move), freed slots reused
// LIFO. The owner destroys live objects (Delete) before the arena dies; the
// arena only reclaims slab memory.
template <typename T, size_t kChunkEntries = 32>
class PooledArena {
 public:
  explicit PooledArena(ArenaCounter* counter = nullptr) : counter_(counter) {}
  PooledArena(PooledArena&&) = default;
  PooledArena& operator=(PooledArena&&) = default;
  ~PooledArena() {
    if (counter_ != nullptr) {
      counter_->Add(-static_cast<int64_t>(chunks_.size() * sizeof(Chunk)) -
                    static_cast<int64_t>(free_.capacity() * sizeof(T*)));
    }
  }

  template <typename... Args>
  T* New(Args&&... args) {
    if (free_.empty()) {
      Grow();
    }
    T* slot = free_.back();
    free_.pop_back();
    return new (slot) T(std::forward<Args>(args)...);
  }

  void Delete(T* p) {
    p->~T();
    // The free list can outgrow the capacity reserved at Grow time (slots
    // handed out earlier all coming back at once, e.g. clear()); count that
    // growth too so the counter balances to zero at teardown.
    const size_t before = free_.capacity();
    free_.push_back(p);
    if (counter_ != nullptr && free_.capacity() != before) {
      counter_->Add(static_cast<int64_t>((free_.capacity() - before) * sizeof(T*)));
    }
  }

  size_t allocated_bytes() const {
    return chunks_.size() * sizeof(Chunk) + free_.capacity() * sizeof(T*);
  }

 private:
  struct Chunk {
    alignas(alignof(T)) unsigned char bytes[sizeof(T) * kChunkEntries];
  };

  void Grow() {
    const size_t before = free_.capacity() * sizeof(T*);
    chunks_.push_back(std::make_unique<Chunk>());
    unsigned char* base = chunks_.back()->bytes;
    free_.reserve(free_.size() + kChunkEntries);
    // Push in reverse so slots are handed out front-to-back within a slab.
    for (size_t i = kChunkEntries; i-- > 0;) {
      free_.push_back(reinterpret_cast<T*>(base + i * sizeof(T)));
    }
    if (counter_ != nullptr) {
      counter_->Add(static_cast<int64_t>(sizeof(Chunk)) +
                    static_cast<int64_t>(free_.capacity() * sizeof(T*) - before));
    }
  }

  ArenaCounter* counter_ = nullptr;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<T*> free_;
};

}  // namespace bullet

#endif  // SRC_SIM_SCALE_ARENA_H_
