#include "src/sim/bandwidth_allocator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <queue>

#include "src/common/logging.h"
#include "src/common/profiler.h"

namespace bullet {

namespace {

// One reference-heap entry: a link's fair share when it was pushed, and the
// link's stamp at that time (a later freeze on the link makes the entry stale).
// Ordered by (share, link id), the tie rule both water-fills follow.
struct StampedShare {
  double share;
  int32_t link;
  uint32_t stamp;
  bool operator>(const StampedShare& o) const {
    return share > o.share || (share == o.share && link > o.link);
  }
};

// The stateless reference body behind AllocateMaxMinPaths. Flows arrive
// CSR-style: flow i crosses flow_links[flow_off[i] .. flow_off[i+1]). Every
// auxiliary structure is built fresh per call, and the saturation heap is a
// lazy std::priority_queue: a freeze pushes a fresh entry for each of the
// flow's links and stale ones are skipped when they reach the top.
// IncrementalMaxMin::Allocate() performs the same freezes in the same order
// with the same arithmetic over an indexed heap, and the invariants tests
// compare the two bitwise.
void ReferenceMaxMin(const std::vector<int32_t>& flow_links, const std::vector<uint32_t>& flow_off,
                     const std::vector<double>& cap, const std::vector<double>& link_capacity_bps,
                     std::vector<double>& rate) {
  const size_t num_links = link_capacity_bps.size();
  const size_t num_flows = cap.size();
  std::vector<double> remaining(link_capacity_bps);
  std::vector<int32_t> nflows(num_links, 0);
  std::vector<uint32_t> stamp(num_links, 0);
  rate.assign(num_flows, 0.0);

  std::vector<std::vector<uint32_t>> link_flows(num_links);
  for (size_t i = 0; i < num_flows; ++i) {
    for (uint32_t off = flow_off[i]; off < flow_off[i + 1]; ++off) {
      const size_t l = static_cast<size_t>(flow_links[off]);
      ++nflows[l];
      link_flows[l].push_back(static_cast<uint32_t>(i));
    }
  }

  // Flow indices ordered by ascending cap, so cap-limited flows freeze cheaply.
  // Equal-cap flows may land in any order: they freeze at equal rates, and
  // subtracting equal values commutes bitwise, so the permutation is harmless.
  std::vector<std::pair<double, uint32_t>> sort_buf(num_flows);
  for (size_t i = 0; i < num_flows; ++i) {
    sort_buf[i] = {cap[i], static_cast<uint32_t>(i)};
  }
  std::sort(sort_buf.begin(), sort_buf.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<size_t> by_cap(num_flows);
  for (size_t i = 0; i < num_flows; ++i) {
    by_cap[i] = sort_buf[i].second;
  }
  size_t cap_cursor = 0;

  std::vector<char> frozen(num_flows, 0);
  size_t frozen_count = 0;

  std::priority_queue<StampedShare, std::vector<StampedShare>, std::greater<>> heap;
  auto push_link = [&](int32_t l) {
    const size_t li = static_cast<size_t>(l);
    if (nflows[li] > 0) {
      heap.push(StampedShare{remaining[li] / nflows[li], l, stamp[li]});
    }
  };
  for (size_t l = 0; l < num_links; ++l) {
    push_link(static_cast<int32_t>(l));
  }

  // Freeze one flow at `r`, removing its demand from its links.
  auto freeze = [&](size_t fi, double r) {
    rate[fi] = std::max(r, 0.0);
    frozen[fi] = 1;
    ++frozen_count;
    for (uint32_t off = flow_off[fi]; off < flow_off[fi + 1]; ++off) {
      const int32_t l = flow_links[off];
      const size_t li = static_cast<size_t>(l);
      remaining[li] = std::max(0.0, remaining[li] - rate[fi]);
      --nflows[li];
      ++stamp[li];
      push_link(l);
    }
  };

  // Flows that traverse no links are bounded only by their cap.
  for (size_t i = 0; i < num_flows; ++i) {
    if (flow_off[i] == flow_off[i + 1]) {
      frozen[i] = 1;
      ++frozen_count;
      rate[i] = cap[i];
    }
  }

  while (frozen_count < num_flows) {
    // Find the currently most constrained link (skip stale heap entries).
    double min_share = -1.0;
    int32_t min_link = -1;
    while (!heap.empty()) {
      const StampedShare top = heap.top();
      const size_t li = static_cast<size_t>(top.link);
      if (top.stamp != stamp[li] || nflows[li] <= 0) {
        heap.pop();
        continue;
      }
      min_share = top.share;
      min_link = top.link;
      break;
    }
    if (min_link < 0) {
      // No constrained link remains; all unfrozen flows get their caps.
      for (size_t i = 0; i < num_flows; ++i) {
        if (!frozen[i]) {
          frozen[i] = 1;
          ++frozen_count;
          rate[i] = cap[i];
        }
      }
      break;
    }

    // First freeze any flow whose cap is at or below the water level: it cannot use
    // a full fair share anywhere (min_share is the global minimum share).
    bool froze_capped = false;
    while (cap_cursor < by_cap.size()) {
      const size_t fi = by_cap[cap_cursor];
      if (frozen[fi]) {
        ++cap_cursor;
        continue;
      }
      if (cap[fi] <= min_share) {
        freeze(fi, cap[fi]);
        ++cap_cursor;
        froze_capped = true;
      } else {
        break;
      }
    }
    if (froze_capped) {
      continue;  // Water level may have risen; recompute.
    }

    // Saturate the bottleneck link: freeze all its unfrozen flows at the fair share.
    const size_t li = static_cast<size_t>(min_link);
    for (uint32_t fi : link_flows[li]) {
      if (!frozen[fi]) {
        freeze(fi, min_share);
      }
    }
    ++stamp[li];  // Invalidate stale entries for the saturated link.
  }
}

}  // namespace

void AllocateMaxMinPaths(std::vector<PathFlowSpec>& flows,
                         const std::vector<double>& link_capacity_bps) {
  std::vector<int32_t> flow_links;
  std::vector<uint32_t> flow_off(flows.size() + 1, 0);
  std::vector<double> cap(flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    flow_links.insert(flow_links.end(), flows[i].links.begin(), flows[i].links.end());
    flow_off[i + 1] = static_cast<uint32_t>(flow_links.size());
    cap[i] = flows[i].cap_bps;
  }
  std::vector<double> rate;
  {
    BULLET_PROFILE_SCOPE(ProfilePhase::kWaterFill);
    ReferenceMaxMin(flow_links, flow_off, cap, link_capacity_bps, rate);
  }
  for (size_t i = 0; i < flows.size(); ++i) {
    flows[i].rate_bps = rate[i];
  }
}

void IncrementalMaxMin::BeginEpoch() {
  // The epoch that ends becomes the previous one, if it was allocated: its
  // by_cap_ then orders its cap_. Otherwise nothing is carried.
  if (allocated_) {
    prev_cap_.swap(cap_);
    prev_by_cap_.swap(by_cap_);
  } else {
    prev_cap_.clear();
    prev_by_cap_.clear();
  }
  allocated_ = false;
  carried_.assign(prev_by_cap_.size(), kNoFlow);
  sort_buf_.clear();
  capacity_.clear();
  flow_links_.clear();
  flow_off_.assign(1, 0);
  cap_.clear();
  rate_.clear();
}

int32_t IncrementalMaxMin::AddLink(double capacity_bps) {
  // LinkHeap orders shares by their bits, which is double order only for
  // non-negative, non-NaN values with a single zero, so -0.0 becomes +0.0.
  BULLET_CHECK(capacity_bps >= 0.0 && "link capacity must be non-negative and not NaN");
  const int32_t id = static_cast<int32_t>(capacity_.size());
  capacity_.push_back(capacity_bps == 0.0 ? 0.0 : capacity_bps);
  return id;
}

void IncrementalMaxMin::AddFlowPath(const int32_t* ids, size_t num_ids, double cap_bps,
                                    uint32_t prev_index) {
  const uint32_t fi = static_cast<uint32_t>(cap_.size());
  flow_links_.insert(flow_links_.end(), ids, ids + num_ids);
  flow_off_.push_back(static_cast<uint32_t>(flow_links_.size()));
  cap_.push_back(cap_bps);
  // A previous flow gives its place at most once, so the carried flows stay
  // a permutation of part of this epoch's flows whatever the hints say.
  if (prev_index < carried_.size() &&
      std::bit_cast<uint64_t>(prev_cap_[prev_index]) == std::bit_cast<uint64_t>(cap_bps) &&
      carried_[prev_index] == kNoFlow) {
    carried_[prev_index] = fi;
  } else {
    sort_buf_.emplace_back(cap_bps, fi);
  }
}

void IncrementalMaxMin::BuildEpochScratch() {
  const size_t num_links = capacity_.size();
  const size_t num_flows = cap_.size();

  remaining_.assign(capacity_.begin(), capacity_.end());
  nflows_.assign(num_links, 0);
  rate_.assign(num_flows, 0.0);

  // CSR build: count per-link flows, prefix-sum, then fill in flow order so each
  // link's flow sequence matches the reference's push_back order.
  for (const int32_t l : flow_links_) {
    ++nflows_[static_cast<size_t>(l)];
  }
  link_off_.assign(num_links + 1, 0);
  for (size_t l = 0; l < num_links; ++l) {
    link_off_[l + 1] = link_off_[l] + static_cast<uint32_t>(nflows_[l]);
  }
  link_flow_.resize(link_off_[num_links]);
  fill_cursor_.assign(link_off_.begin(), link_off_.end() - 1);
  for (size_t i = 0; i < num_flows; ++i) {
    for (uint32_t off = flow_off_[i]; off < flow_off_[i + 1]; ++off) {
      link_flow_[fill_cursor_[static_cast<size_t>(flow_links_[off])]++] = static_cast<uint32_t>(i);
    }
  }

  // Ascending-cap order: two ascending runs merged. The carried flows, in the
  // previous epoch's order, are ascending because each has the cap bits of
  // the flow whose place it took; the others are sorted as (cap, index) pairs,
  // which beats sorting indices with a gathered comparator. The relative order
  // of equal caps is whatever the sort and the merge produce: equal-cap flows
  // freeze at equal rates, and subtracting equal values commutes bitwise, so
  // any permutation of an equal-cap run yields bit-identical results.
  std::sort(sort_buf_.begin(), sort_buf_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  by_cap_.resize(num_flows);
  size_t out = 0;
  auto next = sort_buf_.cbegin();
  if (sort_buf_.size() < num_flows) {
    for (const uint32_t prev : prev_by_cap_) {
      const uint32_t fi = carried_[prev];
      if (fi == kNoFlow) {
        continue;
      }
      for (; next != sort_buf_.cend() && next->first < cap_[fi]; ++next) {
        by_cap_[out++] = next->second;
      }
      by_cap_[out++] = fi;
    }
  }
  for (; next != sort_buf_.cend(); ++next) {
    by_cap_[out++] = next->second;
  }

  frozen_.assign(num_flows, 0);
}

// The reference algorithm (ReferenceMaxMin above) over persistent,
// allocation-free storage:
//   link_flows (vector of vectors)   ->  CSR arrays rebuilt with two linear passes
//   lazy priority_queue with stamps  ->  LinkHeap: one entry per link with
//                                        unfrozen flows, re-keyed in place
//   remaining/nflows/frozen          ->  assign() into retained capacity
// Whenever the reference reads its heap, its valid entries are exactly
// LinkHeap's entries, so both pick the same link by the same (share, link id)
// rule, and every freeze performs the same arithmetic in the same order: the
// rates are bit-identical (see header contract). The saturating link leaves
// the heap before its flows freeze, so their freezes re-key only the other
// links they cross; the heap empties exactly when every flow that crosses a
// link is frozen.
void IncrementalMaxMin::Allocate() {
  BULLET_PROFILE_SCOPE(ProfilePhase::kWaterFill);
  const size_t num_links = capacity_.size();
  const size_t num_flows = cap_.size();

  BuildEpochScratch();
  allocated_ = true;
  size_t cap_cursor = 0;

  heap_.Reset(num_links);
  for (size_t l = 0; l < num_links; ++l) {
    if (nflows_[l] > 0) {
      heap_.Append(static_cast<int32_t>(l), remaining_[l] / nflows_[l]);
    }
  }
  heap_.Heapify();

  // freeze stays a call, whatever GCC would decide from the size of the
  // translation unit; the heap updates inline into it.
  auto freeze = [&](size_t fi, double rate) __attribute__((noinline)) {
    rate_[fi] = std::max(rate, 0.0);
    frozen_[fi] = 1;
    for (uint32_t off = flow_off_[fi]; off < flow_off_[fi + 1]; ++off) {
      const int32_t l = flow_links_[off];
      const size_t li = static_cast<size_t>(l);
      remaining_[li] = std::max(0.0, remaining_[li] - rate_[fi]);
      --nflows_[li];
      if (!heap_.contains(l)) {
        continue;  // the link being saturated
      }
      if (nflows_[li] > 0) {
        heap_.Update(l, remaining_[li] / nflows_[li]);
      } else {
        heap_.Remove(l);
      }
    }
  };

  for (size_t i = 0; i < num_flows; ++i) {
    if (flow_off_[i] == flow_off_[i + 1]) {
      frozen_[i] = 1;
      rate_[i] = cap_[i];
    }
  }

  while (!heap_.empty()) {
    const double min_share = heap_.top_share();

    bool froze_capped = false;
    while (cap_cursor < by_cap_.size()) {
      const size_t fi = by_cap_[cap_cursor];
      if (frozen_[fi]) {
        ++cap_cursor;
        continue;
      }
      if (cap_[fi] <= min_share) {
        freeze(fi, cap_[fi]);
        ++cap_cursor;
        froze_capped = true;
      } else {
        break;
      }
    }
    if (froze_capped) {
      continue;
    }

    const int32_t min_link = heap_.top_link();
    heap_.Remove(min_link);
    const size_t li = static_cast<size_t>(min_link);
    for (uint32_t off = link_off_[li]; off < link_off_[li + 1]; ++off) {
      const uint32_t fi = link_flow_[off];
      if (!frozen_[fi]) {
        freeze(fi, min_share);
      }
    }
  }
}

}  // namespace bullet
