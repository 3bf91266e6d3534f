// Per-sender candidate tracking and the four request-ordering strategies of
// Section 3.3.2. A candidate is a block id known to be available at a sender and not
// yet held or requested by us; validity is checked lazily at pick time through a
// caller-supplied predicate, so a block obtained from another peer silently
// invalidates stale candidates everywhere.
//
// The rarest strategies examine either the full candidate set (exact mode) or a
// bounded random sample (default, sample size 128): with thousands of candidates the
// sampled minimum is statistically indistinguishable from the true minimum while
// keeping per-request cost constant. kRarest breaks ties deterministically (lowest
// block id); kRarestRandom breaks them uniformly at random — exactly the distinction
// the paper evaluates in Fig. 6.
//
// The predicates are template parameters defined in this header, so a caller's
// lambdas inline into the scan loops: a streaming pick examines every candidate,
// and a type-erased call per predicate per entry dominated its cost.

#ifndef SRC_CORE_REQUEST_STRATEGY_H_
#define SRC_CORE_REQUEST_STRATEGY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/config.h"

namespace bullet {

class CandidateSet {
 public:
  // Type-erased predicate forms, for callers that store or pass predicates as
  // values. Every member below accepts these or any other callable.
  using ValidFn = std::function<bool(uint32_t)>;
  using RarityFn = std::function<int(uint32_t)>;

  // Discovery-order append (duplicates allowed; validity filtering handles them).
  void Add(uint32_t id) {
    fifo_.push_back(id);
    vec_.push_back(id);
  }
  // Re-adds an id (e.g. a request re-queued after a sender failed).
  void Readd(uint32_t id) { Add(id); }

  size_t RawSize() const { return vec_.size(); }
  bool RawEmpty() const { return vec_.empty(); }

  // Picks the next block to request under `strategy`, or nullopt if no valid
  // candidate remains. Picked and stale entries are removed as encountered.
  template <typename Valid, typename Rarity>
  std::optional<uint32_t> Pick(RequestStrategy strategy, const Valid& valid, const Rarity& rarity,
                               Rng& rng);

  // Sliding-window pick (streaming mode): as Pick, but candidates failing
  // `eligible` are *skipped and retained* — a block outside the playback
  // window becomes requestable once the window slides over it, so it must not
  // be dropped the way invalid (held/requested) entries are. The configured
  // strategy applies within the eligible subset (rarest-random for Bullet').
  // Scans the whole set (no sampling): eligibility partitions the candidates,
  // and the window bounds how many entries can be eligible at once.
  //
  // Under every strategy but kFirstEncountered, nullopt means the pass just
  // examined every entry and found none both valid and eligible, so
  // RunningDry(k, valid && eligible) is true for every k until the set or the
  // predicates change. kFirstEncountered walks the discovery-order queue
  // instead and promises nothing about the entries RunningDry scans.
  template <typename Valid, typename Eligible, typename Rarity>
  std::optional<uint32_t> PickWindowed(RequestStrategy strategy, const Valid& valid,
                                       const Eligible& eligible, const Rarity& rarity, Rng& rng);

  // True if fewer than `threshold` valid candidates remain (used to trigger diff
  // requests). May scan up to threshold entries.
  template <typename Valid>
  bool RunningDry(size_t threshold, const Valid& valid) const;

  static constexpr size_t kRaritySample = 128;

 private:
  template <typename Valid>
  std::optional<uint32_t> PickFirst(const Valid& valid);
  template <typename Valid>
  std::optional<uint32_t> PickRandom(const Valid& valid, Rng& rng);
  template <typename Valid, typename Rarity>
  std::optional<uint32_t> PickRarest(const Valid& valid, const Rarity& rarity, Rng& rng,
                                     bool random_tie);
  void RemoveAt(size_t index) {
    vec_[index] = vec_.back();
    vec_.pop_back();
  }
  template <typename Valid>
  void Compact(const Valid& valid) {
    vec_.erase(std::remove_if(vec_.begin(), vec_.end(), [&](uint32_t id) { return !valid(id); }),
               vec_.end());
  }

  // `fifo_[fifo_head_..]` preserves discovery order for kFirstEncountered;
  // `vec_` provides O(1) random access for the sampled strategies. Both may
  // contain stale entries. The queue is a vector plus a head offset rather
  // than a std::deque, which allocates 576 B at construction (and again on
  // every move) although only kFirstEncountered ever reads it.
  std::vector<uint32_t> fifo_;
  size_t fifo_head_ = 0;
  std::vector<uint32_t> vec_;
};

template <typename Valid, typename Rarity>
std::optional<uint32_t> CandidateSet::Pick(RequestStrategy strategy, const Valid& valid,
                                           const Rarity& rarity, Rng& rng) {
  switch (strategy) {
    case RequestStrategy::kFirstEncountered:
      return PickFirst(valid);
    case RequestStrategy::kRandom:
      return PickRandom(valid, rng);
    case RequestStrategy::kRarest:
      return PickRarest(valid, rarity, rng, /*random_tie=*/false);
    case RequestStrategy::kRarestRandom:
      return PickRarest(valid, rarity, rng, /*random_tie=*/true);
  }
  return std::nullopt;
}

template <typename Valid, typename Eligible, typename Rarity>
std::optional<uint32_t> CandidateSet::PickWindowed(RequestStrategy strategy, const Valid& valid,
                                                   const Eligible& eligible, const Rarity& rarity,
                                                   Rng& rng) {
  if (strategy == RequestStrategy::kFirstEncountered) {
    // Walk discovery order: drop invalid entries, retain ineligible ones, take
    // the first valid + eligible candidate.
    for (auto it = fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_); it != fifo_.end();) {
      const uint32_t id = *it;
      if (!valid(id)) {
        it = fifo_.erase(it);
        continue;
      }
      if (eligible(id)) {
        fifo_.erase(it);
        return id;
      }
      ++it;
    }
    return std::nullopt;
  }

  // One pass over vec_: invalid entries are compacted away, ineligible ones
  // kept for a later window, and the best eligible entry picked under the
  // strategy (uniform reservoir for kRandom; rarity with deterministic or
  // reservoir tie-break for the rarest strategies).
  size_t write = 0;
  size_t best_index = SIZE_MAX;
  uint32_t best_id = 0;
  int best_rarity = INT32_MAX;
  int ties = 0;
  for (size_t read = 0; read < vec_.size(); ++read) {
    const uint32_t id = vec_[read];
    if (!valid(id)) {
      continue;
    }
    vec_[write] = id;
    const size_t index = write++;
    if (!eligible(id)) {
      continue;
    }
    bool better = false;
    if (strategy == RequestStrategy::kRandom) {
      ++ties;
      better = rng.UniformInt(1, ties) == 1;
    } else {
      const int r = rarity(id);
      if (r < best_rarity) {
        better = true;
        best_rarity = r;
        ties = 1;
      } else if (r == best_rarity) {
        ++ties;
        better = strategy == RequestStrategy::kRarestRandom ? rng.UniformInt(1, ties) == 1
                                                            : id < best_id;
      }
    }
    if (better) {
      best_index = index;
      best_id = id;
    }
  }
  vec_.resize(write);
  if (best_index == SIZE_MAX) {
    return std::nullopt;
  }
  const uint32_t id = vec_[best_index];
  RemoveAt(best_index);
  return id;
}

template <typename Valid>
std::optional<uint32_t> CandidateSet::PickFirst(const Valid& valid) {
  std::optional<uint32_t> picked;
  while (fifo_head_ < fifo_.size()) {
    const uint32_t id = fifo_[fifo_head_++];
    if (valid(id)) {
      picked = id;
      break;
    }
  }
  // Drop the consumed prefix once it is at least half the buffer, so the
  // queue's storage tracks its live length at amortized O(1) per pick.
  if (fifo_head_ * 2 >= fifo_.size()) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
  return picked;
}

template <typename Valid>
std::optional<uint32_t> CandidateSet::PickRandom(const Valid& valid, Rng& rng) {
  while (!vec_.empty()) {
    const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(vec_.size()) - 1));
    const uint32_t id = vec_[i];
    RemoveAt(i);
    if (valid(id)) {
      return id;
    }
  }
  return std::nullopt;
}

template <typename Valid, typename Rarity>
std::optional<uint32_t> CandidateSet::PickRarest(const Valid& valid, const Rarity& rarity,
                                                 Rng& rng, bool random_tie) {
  while (!vec_.empty()) {
    // Examine a bounded random sample (or everything, if small).
    const size_t sample = std::min(vec_.size(), kRaritySample);
    int best_rarity = INT32_MAX;
    size_t best_index = SIZE_MAX;
    uint32_t best_id = 0;
    int ties = 0;
    bool found_stale = false;
    const bool exhaustive = vec_.size() <= kRaritySample;
    // Non-exhaustive sampling draws indices with replacement; a re-drawn index
    // must not be *selectable* twice — its second reservoir win chance biased
    // the tie-break toward duplicated entries. The dedup is draw-preserving:
    // a duplicate keeps consuming the exact RNG draws it did pre-fix (its
    // index draw and, on a rarity tie, its reservoir draw), so every other
    // sampled candidate sees an identical random sequence; only the
    // duplicate's own second win is discarded.
    size_t sampled[kRaritySample];
    size_t num_sampled = 0;
    for (size_t s = 0; s < sample; ++s) {
      const size_t i =
          exhaustive
              ? s
              : static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(vec_.size()) - 1));
      bool duplicate = false;
      if (!exhaustive) {
        for (size_t k = 0; k < num_sampled; ++k) {
          if (sampled[k] == i) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          sampled[num_sampled++] = i;
        }
      }
      const uint32_t id = vec_[i];
      if (!valid(id)) {
        found_stale = true;
        continue;
      }
      const int r = rarity(id);
      bool better = false;
      if (r < best_rarity) {
        better = true;
        ties = 1;
      } else if (r == best_rarity) {
        ++ties;
        if (random_tie) {
          // Reservoir sampling among ties.
          better = rng.UniformInt(1, ties) == 1;
        } else {
          better = id < best_id;  // Deterministic tie-break: the plain-rarest flaw.
        }
      }
      // A duplicate never re-wins: its first examination already competed.
      // (Under the deterministic tie-break this is a no-op — `id < best_id`
      // can only fail for an id that already won — so only the reservoir
      // path changes, and only where a duplicate's second draw had won.)
      if (better && !duplicate) {
        best_rarity = r;
        best_index = i;
        best_id = id;
      }
    }
    if (best_index != SIZE_MAX) {
      const uint32_t id = vec_[best_index];
      RemoveAt(best_index);
      return id;
    }
    if (!exhaustive && found_stale) {
      // The sample hit only stale entries; compact and retry on the cleaned set.
      Compact(valid);
      continue;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

template <typename Valid>
bool CandidateSet::RunningDry(size_t threshold, const Valid& valid) const {
  size_t found = 0;
  // Scan from the back (most recently discovered, most likely still valid).
  for (size_t i = vec_.size(); i-- > 0;) {
    if (valid(vec_[i])) {
      ++found;
      if (found >= threshold) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace bullet

#endif  // SRC_CORE_REQUEST_STRATEGY_H_
