// StableFlatMap — an ordered map for per-node protocol state.
//
// Drop-in for the std::map peer tables in Bullet'/BitTorrent node state, built
// for the mega-swarm regime (100k nodes x tens of peers): every entry is its
// own heap allocation (stable address for the entry's lifetime), and one
// sorted pointer index answers every lookup (binary search) and gives the
// iteration order, ascending by key — byte-identical to the std::map order
// the protocols' determinism contract depends on.
//
// Entries are not pooled: a node's table rarely holds more than a handful of
// peers, so pooled slabs are mostly empty slots. 32-slot slabs peaked at
// 17.8 MB on the 2000-member megaswarm sweep point, against 0.55 MB of
// entries, index and hash table (docs/PERFORMANCE.md "PR 18"). Lookups
// binary-search the index rather than a hash table: find needs the entry's
// index position for its iterator anyway, and at these table sizes a hash
// table held over half of those bytes (docs/PERFORMANCE.md "PR 22").
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

namespace bullet {

// Live/peak byte counter shared by every StableFlatMap of one network (the
// harness reports it as arena_peak_bytes): live entries plus each map's index
// capacity. Single-threaded like the network that owns it.
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

  explicit StableFlatMap(ArenaCounter* counter = nullptr) : counter_(counter) {}
  // The index holds owning raw pointers, so a copy would be shallow.
  StableFlatMap(const StableFlatMap&) = delete;
  StableFlatMap& operator=(const StableFlatMap&) = delete;
  StableFlatMap(StableFlatMap&&) = delete;
  StableFlatMap& operator=(StableFlatMap&&) = delete;
  ~StableFlatMap() {
    clear();
    Charge(-SideBytes());
  }

  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  iterator begin() { return iterator(index_.data()); }
  iterator end() { return iterator(index_.data() + index_.size()); }
  const_iterator begin() const { return const_iterator(index_.data()); }
  const_iterator end() const { return const_iterator(index_.data() + index_.size()); }

  iterator find(const Key& key) {
    const size_t pos = IndexPos(key);
    return Holds(pos, key) ? iterator(index_.data() + pos) : end();
  }
  const_iterator find(const Key& key) const {
    return const_cast<StableFlatMap*>(this)->find(key);
  }

  size_t count(const Key& key) const { return find(key) != end() ? 1 : 0; }

  Value& at(const Key& key) {
    const iterator it = find(key);
    BULLET_CHECK(it != end() && "StableFlatMap::at: missing key");
    return it->second;
  }
  const Value& at(const Key& key) const {
    return const_cast<StableFlatMap*>(this)->at(key);
  }

  template <typename V>
  std::pair<iterator, bool> emplace(const Key& key, V&& value) {
    const size_t pos = IndexPos(key);
    if (Holds(pos, key)) {
      return {iterator(index_.data() + pos), false};
    }
    const int64_t before = SideBytes();
    index_.insert(index_.begin() + static_cast<ptrdiff_t>(pos),
                  new Entry(key, std::forward<V>(value)));
    Charge(kEntryBytes + SideBytes() - before);
    return {iterator(index_.data() + pos), true};
  }

  iterator erase(iterator it) {
    Entry* e = *it.p_;
    const size_t pos = static_cast<size_t>(it.p_ - index_.data());
    index_.erase(index_.begin() + static_cast<ptrdiff_t>(pos));
    delete e;
    Charge(-kEntryBytes);
    return iterator(index_.data() + pos);
  }

  size_t erase(const Key& key) {
    const iterator it = find(key);
    if (it == end()) {
      return 0;
    }
    erase(it);
    return 1;
  }

  void clear() {
    for (Entry* e : index_) {
      delete e;
    }
    Charge(-kEntryBytes * static_cast<int64_t>(index_.size()));
    index_.clear();
  }

  // Bytes held beyond the entries themselves: the index capacity. Exposed for
  // tests pinning the telemetry.
  int64_t SideBytes() const { return static_cast<int64_t>(index_.capacity() * sizeof(Entry*)); }

 private:
  static constexpr int64_t kEntryBytes = static_cast<int64_t>(sizeof(Entry));

  void Charge(int64_t delta) {
    if (counter_ != nullptr) {
      counter_->Add(delta);
    }
  }

  // Position of `key` (or its insertion point) in the sorted index.
  size_t IndexPos(const Key& key) const {
    const auto it = std::lower_bound(
        index_.begin(), index_.end(), key,
        [](const Entry* e, const Key& k) { return e->first < k; });
    return static_cast<size_t>(it - index_.begin());
  }

  // Whether the entry at IndexPos(key) holds `key`.
  bool Holds(size_t pos, const Key& key) const {
    return pos < index_.size() && index_[pos]->first == key;
  }

  ArenaCounter* counter_ = nullptr;
  std::vector<Entry*> index_;  // sorted ascending by key: lookups and iteration; owns the entries
};

}  // namespace bullet

#endif  // SRC_SIM_SCALE_STABLE_FLAT_MAP_H_
