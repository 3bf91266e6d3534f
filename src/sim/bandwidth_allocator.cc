#include "src/sim/bandwidth_allocator.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "src/common/profiler.h"

namespace bullet {

namespace {

struct HeapEntry {
  double share;
  int32_t link;
  uint32_t stamp;
  bool operator>(const HeapEntry& o) const { return share > o.share; }
};

// The stateless reference body shared by AllocateMaxMin and AllocateMaxMinPaths.
// Flows arrive CSR-style: flow i crosses flow_links[flow_off[i] .. flow_off[i+1])
// (negative entries are skipped). Every auxiliary structure is built fresh per
// call; IncrementalMaxMin::Allocate() mirrors this body line for line over
// persistent storage, and the invariants tests compare the two bitwise.
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
      const int32_t l = flow_links[off];
      if (l >= 0) {
        ++nflows[static_cast<size_t>(l)];
        link_flows[static_cast<size_t>(l)].push_back(static_cast<uint32_t>(i));
      }
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

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>> heap;
  auto push_link = [&](int32_t l) {
    const size_t li = static_cast<size_t>(l);
    if (nflows[li] > 0) {
      heap.push(HeapEntry{remaining[li] / nflows[li], l, stamp[li]});
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
      if (l < 0) {
        continue;
      }
      const size_t li = static_cast<size_t>(l);
      remaining[li] = std::max(0.0, remaining[li] - rate[fi]);
      --nflows[li];
      ++stamp[li];
      push_link(l);
    }
  };

  // Flows that traverse no links are bounded only by their cap.
  for (size_t i = 0; i < num_flows; ++i) {
    bool has_link = false;
    for (uint32_t off = flow_off[i]; off < flow_off[i + 1]; ++off) {
      has_link |= flow_links[off] >= 0;
    }
    if (!has_link && !frozen[i]) {
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
      const HeapEntry top = heap.top();
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

void AllocateMaxMin(std::vector<FlowSpec>& flows, const std::vector<double>& link_capacity_bps) {
  // Fixed-3 flows become CSR rows of exactly three entries (-1 slots included and
  // skipped inside, matching the historical behaviour bit for bit).
  std::vector<int32_t> flow_links;
  flow_links.reserve(3 * flows.size());
  std::vector<uint32_t> flow_off(flows.size() + 1, 0);
  std::vector<double> cap(flows.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    for (int32_t l : flows[i].links) {
      flow_links.push_back(l);
    }
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

void IncrementalMaxMin::BeginEpoch(size_t keep_links) {
  capacity_.resize(keep_links);
  flow_links_.clear();
  flow_off_.assign(1, 0);
  cap_.clear();
  rate_.clear();
}

int32_t IncrementalMaxMin::AddLink(double capacity_bps) {
  const int32_t id = static_cast<int32_t>(capacity_.size());
  capacity_.push_back(capacity_bps);
  return id;
}

void IncrementalMaxMin::AddFlow(int32_t l0, int32_t l1, int32_t l2, double cap_bps) {
  flow_links_.push_back(l0);
  flow_links_.push_back(l1);
  flow_links_.push_back(l2);
  flow_off_.push_back(static_cast<uint32_t>(flow_links_.size()));
  cap_.push_back(cap_bps);
}

void IncrementalMaxMin::AddFlowPath(const int32_t* ids, size_t num_ids, double cap_bps) {
  flow_links_.insert(flow_links_.end(), ids, ids + num_ids);
  flow_off_.push_back(static_cast<uint32_t>(flow_links_.size()));
  cap_.push_back(cap_bps);
}

void IncrementalMaxMin::BuildEpochScratch() {
  const size_t num_links = capacity_.size();
  const size_t num_flows = cap_.size();

  remaining_.assign(capacity_.begin(), capacity_.end());
  nflows_.assign(num_links, 0);
  stamp_.assign(num_links, 0);
  rate_.assign(num_flows, 0.0);

  // CSR build: count per-link flows, prefix-sum, then fill in flow order so each
  // link's flow sequence matches the reference's push_back order.
  for (const int32_t l : flow_links_) {
    if (l >= 0) {
      ++nflows_[static_cast<size_t>(l)];
    }
  }
  link_off_.assign(num_links + 1, 0);
  for (size_t l = 0; l < num_links; ++l) {
    link_off_[l + 1] = link_off_[l] + static_cast<uint32_t>(nflows_[l]);
  }
  link_flow_.resize(link_off_[num_links]);
  fill_cursor_.assign(link_off_.begin(), link_off_.end() - 1);
  for (size_t i = 0; i < num_flows; ++i) {
    for (uint32_t off = flow_off_[i]; off < flow_off_[i + 1]; ++off) {
      const int32_t l = flow_links_[off];
      if (l >= 0) {
        link_flow_[fill_cursor_[static_cast<size_t>(l)]++] = static_cast<uint32_t>(i);
      }
    }
  }

  // Ascending-cap order. Sorting (cap, index) pairs beats sorting indices with a
  // gathered comparator (no indirection per comparison). The relative order of
  // equal caps is whatever the sort produces: equal-cap flows freeze at equal
  // rates, and subtracting equal values commutes bitwise, so any permutation of
  // an equal-cap run yields bit-identical results.
  sort_buf_.resize(num_flows);
  for (size_t i = 0; i < num_flows; ++i) {
    sort_buf_[i] = {cap_[i], static_cast<uint32_t>(i)};
  }
  std::sort(sort_buf_.begin(), sort_buf_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  by_cap_.resize(num_flows);
  for (size_t i = 0; i < num_flows; ++i) {
    by_cap_[i] = sort_buf_[i].second;
  }

  frozen_.assign(num_flows, 0);
}

// The reference algorithm (ReferenceMaxMin above) with every auxiliary structure
// replaced by a persistent, allocation-free equivalent:
//   link_flows (vector of vectors)  ->  CSR arrays rebuilt with two linear passes
//   priority_queue                  ->  the same priority_queue over a reused vector
//   remaining/nflows/stamp/frozen   ->  assign() into retained capacity
// Every comparison and arithmetic update mirrors the reference line for line, in
// the same order, so the produced rates are bit-identical (see header contract).
void IncrementalMaxMin::Allocate() {
  BULLET_PROFILE_SCOPE(ProfilePhase::kWaterFill);
  const size_t num_links = capacity_.size();
  const size_t num_flows = cap_.size();

  BuildEpochScratch();
  size_t cap_cursor = 0;
  size_t frozen_count = 0;

  heap_.clear();
  // Inlining is pinned: the heap push inlines into freeze, and freeze stays a
  // call. GCC otherwise decides both from the size of the whole translation
  // unit, and the flipped choice costs the water-fill about 15%.
  auto push_link = [&](int32_t l) __attribute__((always_inline)) {
    const size_t li = static_cast<size_t>(l);
    if (nflows_[li] > 0) {
      heap_.push(HeapEntry{remaining_[li] / nflows_[li], l, stamp_[li]});
    }
  };
  for (size_t l = 0; l < num_links; ++l) {
    push_link(static_cast<int32_t>(l));
  }

  auto freeze = [&](size_t fi, double rate) __attribute__((noinline)) {
    rate_[fi] = std::max(rate, 0.0);
    frozen_[fi] = 1;
    ++frozen_count;
    for (uint32_t off = flow_off_[fi]; off < flow_off_[fi + 1]; ++off) {
      const int32_t l = flow_links_[off];
      if (l < 0) {
        continue;
      }
      const size_t li = static_cast<size_t>(l);
      remaining_[li] = std::max(0.0, remaining_[li] - rate_[fi]);
      --nflows_[li];
      ++stamp_[li];
      push_link(l);
    }
  };

  for (size_t i = 0; i < num_flows; ++i) {
    bool has_link = false;
    for (uint32_t off = flow_off_[i]; off < flow_off_[i + 1]; ++off) {
      has_link |= flow_links_[off] >= 0;
    }
    if (!has_link && !frozen_[i]) {
      frozen_[i] = 1;
      ++frozen_count;
      rate_[i] = cap_[i];
    }
  }

  while (frozen_count < num_flows) {
    double min_share = -1.0;
    int32_t min_link = -1;
    while (!heap_.empty()) {
      const HeapEntry top = heap_.top();
      const size_t li = static_cast<size_t>(top.link);
      if (top.stamp != stamp_[li] || nflows_[li] <= 0) {
        heap_.pop();
        continue;
      }
      min_share = top.share;
      min_link = top.link;
      break;
    }
    if (min_link < 0) {
      for (size_t i = 0; i < num_flows; ++i) {
        if (!frozen_[i]) {
          frozen_[i] = 1;
          ++frozen_count;
          rate_[i] = cap_[i];
        }
      }
      break;
    }

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

    const size_t li = static_cast<size_t>(min_link);
    for (uint32_t off = link_off_[li]; off < link_off_[li + 1]; ++off) {
      const uint32_t fi = link_flow_[off];
      if (!frozen_[fi]) {
        freeze(fi, min_share);
      }
    }
    ++stamp_[li];
  }
}

}  // namespace bullet
