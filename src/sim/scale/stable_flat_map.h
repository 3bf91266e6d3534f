// StableFlatMap — an arena-backed ordered map for per-node protocol state.
//
// Drop-in for the std::map peer tables in Bullet'/BitTorrent node state, built
// for the mega-swarm regime (100k nodes x tens of peers): entries live in a
// PooledArena (chunked slabs, stable addresses, LIFO slot reuse), membership
// is an open-addressing hash table (splitmix64-mixed keys, linear probing,
// tombstone deletion), and iteration walks a sorted pointer index so the
// traversal order is ascending by key — byte-identical to the std::map order
// the protocols' determinism contract depends on.
//
// Iterator semantics match what the protocol code actually does with its
// std::map iterators: dereference to pair<const Key, Value>&, hold an
// iterator across a read-only scan and erase it afterwards, structured
// bindings in range-for. Inserting or erasing invalidates iterators (the
// sorted index is a vector); entry *addresses* stay stable for the entry's
// lifetime.

#ifndef SRC_SIM_SCALE_STABLE_FLAT_MAP_H_
#define SRC_SIM_SCALE_STABLE_FLAT_MAP_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/scale/arena.h"

namespace bullet {

template <typename Key, typename Value>
class StableFlatMap {
 public:
  using Entry = std::pair<const Key, Value>;

  class iterator {
   public:
    iterator() = default;
    Entry& operator*() const { return **p_; }
    Entry* operator->() const { return *p_; }
    iterator& operator++() {
      ++p_;
      return *this;
    }
    bool operator==(const iterator& o) const { return p_ == o.p_; }
    bool operator!=(const iterator& o) const { return p_ != o.p_; }

   private:
    friend class StableFlatMap;
    explicit iterator(Entry** p) : p_(p) {}
    Entry** p_ = nullptr;
  };

  class const_iterator {
   public:
    const_iterator() = default;
    const_iterator(iterator it) : p_(it.p_) {}  // NOLINT: implicit like std::map
    const Entry& operator*() const { return **p_; }
    const Entry* operator->() const { return *p_; }
    const_iterator& operator++() {
      ++p_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return p_ == o.p_; }
    bool operator!=(const const_iterator& o) const { return p_ != o.p_; }

   private:
    friend class StableFlatMap;
    explicit const_iterator(Entry* const* p) : p_(p) {}
    Entry* const* p_ = nullptr;
  };

  explicit StableFlatMap(ArenaCounter* counter = nullptr)
      : counter_(counter), arena_(counter) {}
  StableFlatMap(StableFlatMap&&) = default;
  StableFlatMap& operator=(StableFlatMap&&) = default;
  ~StableFlatMap() {
    clear();
    if (counter_ != nullptr) {
      counter_->Add(-SideBytes());
    }
  }

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  iterator begin() { return iterator(index_.data()); }
  iterator end() { return iterator(index_.data() + index_.size()); }
  const_iterator begin() const { return const_iterator(index_.data()); }
  const_iterator end() const { return const_iterator(index_.data() + index_.size()); }

  iterator find(const Key& key) {
    return Probe(key) != nullptr ? iterator(index_.data() + IndexPos(key)) : end();
  }
  const_iterator find(const Key& key) const {
    return Probe(key) != nullptr ? const_iterator(index_.data() + IndexPos(key)) : end();
  }

  size_t count(const Key& key) const { return Probe(key) != nullptr ? 1 : 0; }

  Value& at(const Key& key) {
    Entry* e = Probe(key);
    BULLET_CHECK(e != nullptr && "StableFlatMap::at: missing key");
    return e->second;
  }
  const Value& at(const Key& key) const {
    return const_cast<StableFlatMap*>(this)->at(key);
  }

  template <typename V>
  std::pair<iterator, bool> emplace(const Key& key, V&& value) {
    if (Probe(key) != nullptr) {
      return {iterator(index_.data() + IndexPos(key)), false};
    }
    const int64_t before = SideBytes();
    Entry* e = arena_.New(key, std::forward<V>(value));
    InsertTable(e);
    const size_t pos = IndexPos(key);
    index_.insert(index_.begin() + static_cast<ptrdiff_t>(pos), e);
    if (counter_ != nullptr) {
      counter_->Add(SideBytes() - before);
    }
    return {iterator(index_.data() + pos), true};
  }

  iterator erase(iterator it) {
    Entry* e = *it.p_;
    const size_t pos = static_cast<size_t>(it.p_ - index_.data());
    EraseTable(e->first);
    index_.erase(index_.begin() + static_cast<ptrdiff_t>(pos));
    arena_.Delete(e);
    return iterator(index_.data() + pos);
  }

  size_t erase(const Key& key) {
    if (Probe(key) == nullptr) {
      return 0;
    }
    erase(iterator(index_.data() + IndexPos(key)));
    return 1;
  }

  void clear() {
    for (Entry* e : index_) {
      arena_.Delete(e);
    }
    index_.clear();
    std::fill(table_.begin(), table_.end(), nullptr);
    table_used_ = 0;
  }

  // Bytes held beyond the entries themselves (arena slabs are counted by the
  // arena); exposed for tests pinning the telemetry.
  int64_t SideBytes() const {
    return static_cast<int64_t>(index_.capacity() * sizeof(Entry*) +
                                table_.capacity() * sizeof(Entry*));
  }

 private:
  static Entry* Tombstone() { return reinterpret_cast<Entry*>(alignof(Entry)); }

  static uint64_t Mix(uint64_t x) {
    // splitmix64 finalizer — keys may carry structure in their high bits, so
    // identity hashing would cluster under a power-of-2 mask.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  Entry* Probe(const Key& key) const {
    if (table_.empty()) {
      return nullptr;
    }
    const size_t mask = table_.size() - 1;
    size_t i = static_cast<size_t>(Mix(static_cast<uint64_t>(key))) & mask;
    while (true) {
      Entry* e = table_[i];
      if (e == nullptr) {
        return nullptr;
      }
      if (e != Tombstone() && e->first == key) {
        return e;
      }
      i = (i + 1) & mask;
    }
  }

  // Position of `key` (or its insertion point) in the sorted index.
  size_t IndexPos(const Key& key) const {
    const auto it = std::lower_bound(
        index_.begin(), index_.end(), key,
        [](const Entry* e, const Key& k) { return e->first < k; });
    return static_cast<size_t>(it - index_.begin());
  }

  void InsertTable(Entry* e) {
    if (table_.empty() || (table_used_ + 1) * 10 >= table_.size() * 7) {
      // Size off the *live* count, not the slot count: under churn most used
      // slots are tombstones, and doubling blindly would ratchet forever.
      size_t target = 16;
      while ((index_.size() + 1) * 2 >= target) {
        target *= 2;
      }
      Rehash(target);
    }
    const size_t mask = table_.size() - 1;
    size_t i = static_cast<size_t>(Mix(static_cast<uint64_t>(e->first))) & mask;
    while (table_[i] != nullptr && table_[i] != Tombstone()) {
      i = (i + 1) & mask;
    }
    if (table_[i] == nullptr) {
      ++table_used_;
    }
    table_[i] = e;
  }

  void EraseTable(const Key& key) {
    const size_t mask = table_.size() - 1;
    size_t i = static_cast<size_t>(Mix(static_cast<uint64_t>(key))) & mask;
    while (true) {
      Entry* e = table_[i];
      BULLET_CHECK(e != nullptr && "StableFlatMap: erasing a key not in the table");
      if (e != Tombstone() && e->first == key) {
        table_[i] = Tombstone();  // stays counted in table_used_
        return;
      }
      i = (i + 1) & mask;
    }
  }

  void Rehash(size_t new_size) {
    std::vector<Entry*> old = std::move(table_);
    table_.assign(new_size, nullptr);
    table_used_ = 0;
    for (Entry* e : old) {
      if (e != nullptr && e != Tombstone()) {
        const size_t mask = table_.size() - 1;
        size_t i = static_cast<size_t>(Mix(static_cast<uint64_t>(e->first))) & mask;
        while (table_[i] != nullptr) {
          i = (i + 1) & mask;
        }
        table_[i] = e;
        ++table_used_;
      }
    }
  }

  ArenaCounter* counter_ = nullptr;
  PooledArena<Entry> arena_;
  std::vector<Entry*> index_;  // sorted ascending by key: the iteration order
  std::vector<Entry*> table_;  // open addressing; power-of-2, linear probing
  size_t table_used_ = 0;      // occupied slots including tombstones
};

}  // namespace bullet

#endif  // SRC_SIM_SCALE_STABLE_FLAT_MAP_H_
