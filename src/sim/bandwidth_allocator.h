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
//    a CSR array, the saturation heap, the cap-sorted index, freeze flags)
//    persists across allocation epochs, so a recompute performs zero heap
//    allocations after warm-up. Callers dirty-track their flow set and simply
//    skip Allocate() when nothing changed: the previous rates are, by
//    determinism, exactly what a recompute would produce.
//
// Bit-exactness contract: for the same sequence of links and flows (same link
// ids, same per-flow link order), IncrementalMaxMin::Allocate() produces rates
// bit-identical to the reference. This is load-bearing — the max-min water level
// is a chain of FP subtractions whose low-order bits depend on freeze order, and
// freeze order depends on flow and link numbering (sort and heap tie-breaks).
// Both implementations therefore perform the identical operation sequence (same
// sort call, same heap algorithm, same update arithmetic), and the network feeds
// them flows in the identical order. Link ids themselves are labels: only their
// order matters, through the heap's initial push of every link that carries a
// flow, in id order. Leaving out links no flow crosses, or renumbering links in
// a way that keeps that order, leaves every rate unchanged (the network
// registers only the links its flows cross). Equal-cap flows may be permuted by
// the sort: they freeze at equal rates, and subtracting equal values commutes
// bitwise, so such permutations are harmless. Partial recomputation of
// "affected bottleneck groups" cannot meet this contract (restricting the heap
// to a subgraph changes tie resolution), which is why incrementality here means
// exact result reuse plus allocation-free rebuild rather than subgraph
// water-filling.
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

// One saturation-heap entry: a link's fair share when it was pushed, and the
// link's stamp at that time (a later freeze on the link makes the entry stale).
// Ordered by share alone; `>` is what std::greater compares.
struct HeapEntry {
  double share;
  int32_t link;
  uint32_t stamp;
  bool operator>(const HeapEntry& o) const { return share > o.share; }
};

// The min-share heap both water-fills use. It replays libstdc++'s
// std::push_heap / std::pop_heap over std::greater<HeapEntry> step for step --
// the hole moves, the pop's sift to a leaf and the sift back up -- so equal
// shares come out in exactly the order std::priority_queue gives them, and the
// rates, whose low bits depend on that order, stay those of the historical
// priority_queue. Only the child choice of the sift-down is branch-free (on
// equal shares it keeps the right child, as libstdc++ does), which matters
// because most pops discard stale entries. Storage survives clear(), so an
// epoch allocates nothing once warm. push and pop are forced inline: called
// out of line they cost the water-fill about 10%.
class SaturationHeap {
 public:
  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  const HeapEntry& top() const { return v_.front(); }
  void clear() { v_.clear(); }

  __attribute__((always_inline)) void push(const HeapEntry& e) {
    v_.push_back(e);
    SiftUp(v_.size() - 1, e);
  }

  // libstdc++'s pop_heap + pop_back: the last entry leaves the array, the hole
  // left at the root sinks to a leaf along the smaller child (the right one on
  // equal shares), and the last entry is sifted up from there (__adjust_heap).
  __attribute__((always_inline)) void pop() {
    const size_t len = v_.size() - 1;  // entries left after the pop
    if (len > 0) {
      const HeapEntry last = v_[len];
      size_t hole = 0;
      size_t child = 0;
      while (child < (len - 1) / 2) {
        child = 2 * (child + 1);
        child -= static_cast<size_t>(v_[child].share > v_[child - 1].share);
        v_[hole] = v_[child];
        hole = child;
      }
      if ((len & 1) == 0 && child == (len - 2) / 2) {
        child = 2 * (child + 1);
        v_[hole] = v_[child - 1];
        hole = child - 1;
      }
      SiftUp(hole, last);
    }
    v_.pop_back();
  }

 private:
  // libstdc++'s __push_heap: moves the hole at `hole` up while its parent's
  // share is strictly greater than `e`'s, then stores `e` there.
  void SiftUp(size_t hole, const HeapEntry& e) {
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!(v_[parent].share > e.share)) {
        break;
      }
      v_[hole] = v_[parent];
      hole = parent;
    }
    v_[hole] = e;
  }

  std::vector<HeapEntry> v_;
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
//     alloc.AddFlowPath(ids, num_ids, cap);
//   alloc.Allocate();
//   ... alloc.rate(i) ...
//
// Results stay valid until the next BeginEpoch(), which lets callers reuse rates
// across quanta in which the flow set, caps, and capacities are all unchanged.
class IncrementalMaxMin {
 public:
  // Resets the flow and link sets for a new epoch; previously returned rates
  // are invalidated. Scratch capacity is retained.
  void BeginEpoch();

  // Registers the next link; ids are assigned densely in call order.
  int32_t AddLink(double capacity_bps);

  // Registers the next flow (index = number of AddFlowPath calls so far this
  // epoch), crossing the `num_ids` links at `ids`.
  void AddFlowPath(const int32_t* ids, size_t num_ids, double cap_bps);

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

  // Scratch reused across epochs.
  std::vector<double> remaining_;
  std::vector<int32_t> nflows_;
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> link_off_;    // CSR offsets, size L+1
  std::vector<uint32_t> link_flow_;   // CSR payload: flow indices per link, flow order
  std::vector<uint32_t> fill_cursor_;
  std::vector<std::pair<double, uint32_t>> sort_buf_;  // (cap, flow) pairs
  std::vector<size_t> by_cap_;
  std::vector<char> frozen_;
  SaturationHeap heap_;
};

}  // namespace bullet

#endif  // SRC_SIM_BANDWIDTH_ALLOCATOR_H_
