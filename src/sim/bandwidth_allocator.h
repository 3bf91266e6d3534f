// Max-min fair bandwidth allocation with per-flow rate caps.
//
// Each active flow traverses an arbitrary list of links — on the legacy mesh that
// is (sender uplink, receiver downlink, core link); on a routed topology it is the
// access links plus every interior link of the flow's route — and may additionally
// be capped by its TCP model. Progressive filling computes the unique max-min
// allocation: repeatedly find the most constrained link, freeze its flows at the
// fair share, and redistribute. Flows whose cap is below the current water level
// are frozen at their cap first.
//
// Two implementations share the algorithm and one flow form, a list of link
// ids per flow (a flow with an empty list is bounded only by its cap):
//
//  * AllocateMaxMinPaths — the stateless reference. Builds every auxiliary
//    structure per call; kept as the ground truth the property tests compare
//    against and that checked builds hold the network's cached rates to every
//    quantum (network.h).
//
//  * IncrementalMaxMin — the hot-path engine. All scratch (per-link flow lists as
//    a CSR array, an indexed link heap, the cap-sorted index, freeze flags)
//    persists across allocation epochs, so a recompute performs zero heap
//    allocations after warm-up. Callers dirty-track their flow set and simply
//    skip Allocate() when nothing changed: the previous rates are, by
//    determinism, exactly what a recompute would produce. The ascending-cap
//    order is carried from one epoch to the next: a flow whose hint names a
//    previous flow with a bit-identical cap takes that flow's place, and only
//    the new and re-capped flows are sorted and merged in.
//
// Bit-exactness contract: for the same sequence of links and flows (same link
// ids, same per-flow link order), IncrementalMaxMin::Allocate() produces rates
// bit-identical to the reference. This is load-bearing — the max-min water level
// is a chain of FP subtractions whose low-order bits depend on freeze order, and
// freeze order depends on flow and link numbering. Both implementations
// therefore follow one rule: links saturate in (share, link id) order, so of
// two links with equal fair shares the lower id saturates first; cap-limited
// flows freeze in ascending-cap order; and every update performs the same
// arithmetic. The network feeds them flows in the identical
// order. Link ids themselves are labels: only their order matters, through
// the tie rule. Leaving out links no flow crosses, or renumbering links in a
// way that keeps that order, leaves every rate unchanged (the network
// registers only the links its flows cross). Equal-cap flows may come in any
// order: they freeze at equal rates, and each link they cross sees the same
// subtractions whatever their order, so after a run of equal-cap freezes
// every link's remaining capacity and flow count, and with them the heap's
// content, do not depend on that order. That is why the reference may sort
// afresh while the hot path carries its order across epochs: any ascending
// order gives the same freezes. Partial recomputation of "affected bottleneck
// groups" cannot meet this contract (restricting the water level to a
// subgraph changes when cap-limited flows freeze relative to saturations), so
// incrementality here means exact result reuse, an allocation-free rebuild
// and a carried cap order, never subgraph water-filling.
//
// Thread-safety: the free functions are safe to call concurrently on disjoint
// arguments (they touch only their parameters); an IncrementalMaxMin instance
// is single-threaded — its persistent scratch belongs to one Network.
//
// Profiling: the water-filling body runs under a `water_fill` timed scope
// (src/common/profiler.h) — distinct from the network's enclosing
// `allocator_epoch` phase so nesting never double-counts. The scope is a no-op
// unless built with -DBULLET_PROFILE=ON and never affects the computed rates.

#ifndef SRC_SIM_BANDWIDTH_ALLOCATOR_H_
#define SRC_SIM_BANDWIDTH_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace bullet {

// One flow: it crosses every link in `links` (indices into the capacity
// vector; may be empty), at most `cap_bps` (TCP model; use a large value for
// "unlimited").
struct PathFlowSpec {
  std::vector<int32_t> links;
  double cap_bps = 0.0;
  double rate_bps = 0.0;  // output: allocated rate in bits/second
};

// The hot path's saturation heap: a 4-ary min-heap holding at most one entry
// per link, keyed by (share, link id), plus each link's position in it, so a
// link's share can be re-keyed or the link removed in place and the heap never
// holds a stale entry. A key is the share's bits above the link id, compared
// as one 128-bit integer: for shares that are non-negative and not NaN (the
// only ones the water-fill produces, see IncrementalMaxMin::AddLink) that
// order is exactly (share, link) under double `<`, and the compare is
// branch-free. Storage survives Reset(), so an epoch allocates nothing once
// warm.
class LinkHeap {
 public:
  // Empties the heap for links [0, num_links), none of which is in it.
  void Reset(size_t num_links) {
    heap_.clear();
    pos_.assign(num_links, kAbsent);
  }

  // Adds `link`, which must be absent, at the end of the array without
  // restoring heap order; call Heapify() after the last Append().
  void Append(int32_t link, double share) {
    pos_[static_cast<size_t>(link)] = static_cast<uint32_t>(heap_.size());
    heap_.push_back(MakeKey(share, link));
  }

  // Restores heap order over everything appended (Floyd's bottom-up build).
  void Heapify() {
    const size_t n = heap_.size();
    if (n < 2) {
      return;
    }
    for (size_t i = (n - 2) / kArity + 1; i-- > 0;) {
      SiftDown(i, heap_[i]);
    }
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  bool contains(int32_t link) const { return pos_[static_cast<size_t>(link)] != kAbsent; }

  // The link with the smallest (share, link id) and its share.
  int32_t top_link() const { return LinkOf(heap_.front()); }
  double top_share() const { return ShareOf(heap_.front()); }

  // Gives `link`, which must be present, a new share; the share may go up or
  // down.
  void Update(int32_t link, double share) {
    const size_t i = pos_[static_cast<size_t>(link)];
    const Key k = MakeKey(share, link);
    if (k < heap_[i]) {
      SiftUp(i, k);
    } else {
      SiftDown(i, k);
    }
  }

  // Takes `link`, which must be present, out of the heap; the last entry
  // fills its place.
  void Remove(int32_t link) {
    const size_t i = pos_[static_cast<size_t>(link)];
    pos_[static_cast<size_t>(link)] = kAbsent;
    const Key gone = heap_[i];
    const Key last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) {
      return;  // `link` was the last entry
    }
    if (last < gone) {
      SiftUp(i, last);
    } else {
      SiftDown(i, last);
    }
  }

 private:
  using Key = unsigned __int128;
  static constexpr size_t kArity = 4;  // children of i are 4i+1 .. 4i+4
  static constexpr uint32_t kAbsent = UINT32_MAX;

  // memcpy rather than std::bit_cast: the header also builds as C++17.
  static Key MakeKey(double share, int32_t link) {
    uint64_t bits = 0;
    std::memcpy(&bits, &share, sizeof bits);
    return (Key{bits} << 32) | static_cast<uint32_t>(link);
  }
  static int32_t LinkOf(Key k) { return static_cast<int32_t>(static_cast<uint32_t>(k)); }
  static double ShareOf(Key k) {
    const uint64_t bits = static_cast<uint64_t>(k >> 32);
    double share = 0.0;
    std::memcpy(&share, &bits, sizeof share);
    return share;
  }

  void Place(size_t i, Key k) {
    heap_[i] = k;
    pos_[static_cast<size_t>(LinkOf(k))] = static_cast<uint32_t>(i);
  }

  // Moves the hole at `i` up while its parent is greater than `k`, then
  // stores `k` there.
  void SiftUp(size_t i, Key k) {
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!(k < heap_[parent])) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, k);
  }

  // Moves the hole at `i` down while its smallest child is less than `k`,
  // then stores `k` there. A full group's child choice is branch-free.
  void SiftDown(size_t i, Key k) {
    const size_t n = heap_.size();
    const Key* h = heap_.data();
    for (;;) {
      const size_t first = kArity * i + 1;
      if (first >= n) {
        break;
      }
      size_t best = first;
      if (first + kArity <= n) {
        const size_t a = first + (h[first + 1] < h[first] ? 1 : 0);
        const size_t b = first + 2 + (h[first + 3] < h[first + 2] ? 1 : 0);
        best = h[b] < h[a] ? b : a;
      } else {
        for (size_t c = first + 1; c < n; ++c) {
          best = h[c] < h[best] ? c : best;
        }
      }
      if (!(h[best] < k)) {
        break;
      }
      Place(i, h[best]);
      i = best;
    }
    Place(i, k);
  }

  std::vector<Key> heap_;
  std::vector<uint32_t> pos_;  // per link: index into heap_, or kAbsent
};

// Computes the allocation in place. `link_capacity_bps[i]` is the capacity of link i.
// Runs in O(F log F + saturation events * log L).
void AllocateMaxMinPaths(std::vector<PathFlowSpec>& flows,
                         const std::vector<double>& link_capacity_bps);

// Reusable-scratch max-min engine. Usage per allocation epoch:
//
//   alloc.BeginEpoch();
//   for each link (fixed ids first, discovered ones after): alloc.AddLink(capacity);
//   for each flow in the caller's canonical order:
//     alloc.AddFlowPath(ids, num_ids, cap, prev_index);  // or without the last
//   alloc.Allocate();
//   ... alloc.rate(i) ...
//
// Results stay valid until the next BeginEpoch(), which lets callers reuse rates
// across quanta in which the flow set, caps, and capacities are all unchanged.
class IncrementalMaxMin {
 public:
  // Resets the flow and link sets for a new epoch; previously returned rates
  // are invalidated. Scratch capacity is retained. The cap order of the
  // previous epoch is carried into this one only if Allocate() ran on it.
  void BeginEpoch();

  // Registers the next link; ids are assigned densely in call order. The
  // capacity must be non-negative and not NaN (checked); -0.0 is stored as
  // +0.0.
  int32_t AddLink(double capacity_bps);

  // Registers the next flow (index = number of AddFlowPath calls so far this
  // epoch), crossing the `num_ids` links at `ids`. Its place in the
  // ascending-cap order is found by sorting.
  void AddFlowPath(const int32_t* ids, size_t num_ids, double cap_bps) {
    AddFlowPath(ids, num_ids, cap_bps, kNoFlow);
  }

  // The same for a caller that tracks its flows across epochs: `prev_index`
  // is the flow's index in the previous epoch. When the previous epoch's flow
  // at `prev_index` had a bit-identical cap and no flow of this epoch took its
  // place yet, the flow takes that place in the cap order instead of being
  // sorted. Any flow may take any such place: equal caps are interchangeable
  // in the order, and each place is taken at most once. A wrong hint (out of
  // range, stale, another flow's, or a flow whose cap changed) only costs the
  // sort; the rates never depend on the hints.
  void AddFlowPath(const int32_t* ids, size_t num_ids, double cap_bps, uint32_t prev_index);

  // Water-fills the current epoch. Bit-identical to the stateless reference over
  // the same links/flows sequence.
  void Allocate();

  size_t num_flows() const { return cap_.size(); }
  size_t num_links() const { return capacity_.size(); }
  double rate(size_t flow_index) const { return rate_[flow_index]; }
  const std::vector<double>& rates() const { return rate_; }

  // Number of flows the last Allocate() saw on `link` (CSR row width). Valid
  // until the next BeginEpoch(); used by the network's shared-bottleneck
  // introspection.
  int32_t flows_on_link(size_t link) const {
    return static_cast<int32_t>(link_off_[link + 1] - link_off_[link]);
  }

 private:
  static constexpr uint32_t kNoFlow = UINT32_MAX;

  // Rebuilds the per-epoch scratch (remaining capacities, CSR link->flow rows,
  // ascending-cap order, frozen flags, zeroed rates) from the epoch inputs.
  // Pure data movement, kept apart from Allocate()'s arithmetic.
  void BuildEpochScratch();

  // Epoch inputs. Flows are stored CSR-style: flow i crosses
  // flow_links_[flow_off_[i] .. flow_off_[i+1]).
  std::vector<double> capacity_;     // per link
  std::vector<int32_t> flow_links_;  // CSR payload
  std::vector<uint32_t> flow_off_;   // CSR offsets, size F+1
  std::vector<double> cap_;          // per flow
  std::vector<double> rate_;         // per flow (output)

  // The carried cap order. The previous epoch's caps and ascending-cap order
  // (empty unless Allocate() ran on it); per previous flow, the flow of this
  // epoch that took its place, or kNoFlow; and the (cap, flow) pairs of the
  // flows that found no place and are sorted.
  std::vector<double> prev_cap_;
  std::vector<uint32_t> prev_by_cap_;
  std::vector<uint32_t> carried_;
  std::vector<std::pair<double, uint32_t>> sort_buf_;
  bool allocated_ = false;  // Allocate() ran since the last BeginEpoch()

  // Scratch reused across epochs.
  std::vector<double> remaining_;
  std::vector<int32_t> nflows_;
  std::vector<uint32_t> link_off_;    // CSR offsets, size L+1
  std::vector<uint32_t> link_flow_;   // CSR payload: flow indices per link, flow order
  std::vector<uint32_t> fill_cursor_;
  std::vector<uint32_t> by_cap_;      // flow indices, ascending cap
  std::vector<char> frozen_;
  LinkHeap heap_;
};

}  // namespace bullet

#endif  // SRC_SIM_BANDWIDTH_ALLOCATOR_H_
