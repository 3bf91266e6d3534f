#include "src/sim/scale/flow_aggregation.h"

#include <algorithm>

#include "src/common/logging.h"

namespace bullet {

namespace {

// FNV-1a over the interior link-id slice; collisions are resolved by content
// comparison, the hash only buckets.
uint64_t HashSlice(const int32_t* ids, size_t len) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(ids[i]));
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void FlowAggregator::Allocate(const IncrementalMaxMin& epoch, size_t num_access_links) {
  const IncrementalMaxMin::EpochView view = epoch.epoch_view();
  const std::vector<double>& link_cap = *view.capacity;
  const std::vector<int32_t>& flow_links = *view.flow_links;
  const std::vector<uint32_t>& flow_off = *view.flow_off;
  const std::vector<double>& tcp_cap = *view.cap;
  const size_t nf = tcp_cap.size();
  BULLET_CHECK(num_access_links <= link_cap.size());
  const size_t ni = link_cap.size() - num_access_links;

  rates_.assign(nf, 0.0);
  member_cap_.resize(nf);
  flow_bundle_.assign(nf, -1);
  bundles_.clear();
  slice_pool_.clear();
  bundle_index_.clear();
  max_interior_link_flows_ = 0;

  // Pass 1: busy-flow count per access link (the k in capacity/k member caps).
  access_count_.assign(num_access_links, 0);
  for (size_t i = 0; i < nf; ++i) {
    for (uint32_t o = flow_off[i]; o < flow_off[i + 1]; ++o) {
      const int32_t l = flow_links[o];
      if (l >= 0 && static_cast<size_t>(l) < num_access_links) {
        ++access_count_[static_cast<size_t>(l)];
      }
    }
  }

  // Pass 2: member caps and bundling. A flow's interior slice is the
  // contiguous tail of its link list from the first interior id (the network
  // registers uplink, downlink, then the route).
  for (size_t i = 0; i < nf; ++i) {
    double w = tcp_cap[i];
    uint32_t interior_begin = flow_off[i + 1];
    for (uint32_t o = flow_off[i]; o < flow_off[i + 1]; ++o) {
      const int32_t l = flow_links[o];
      if (l < 0) {
        continue;
      }
      if (static_cast<size_t>(l) < num_access_links) {
        const double share =
            link_cap[static_cast<size_t>(l)] / access_count_[static_cast<size_t>(l)];
        w = std::min(w, share);
      } else {
        interior_begin = o;
        break;
      }
    }
    member_cap_[i] = w;
    const int32_t* slice = flow_links.data() + interior_begin;
    const size_t slice_len = flow_off[i + 1] - interior_begin;
    if (slice_len == 0) {
      // No shared interior links: the member cap is the allocation.
      rates_[i] = w;
      continue;
    }
    const uint64_t h = HashSlice(slice, slice_len);
    int32_t b = -1;
    std::vector<int32_t>& chain = bundle_index_[h];
    for (const int32_t cand : chain) {
      const Bundle& bd = bundles_[static_cast<size_t>(cand)];
      if (bd.slice_len == slice_len &&
          std::equal(slice, slice + slice_len, slice_pool_.data() + bd.slice_off)) {
        b = cand;
        break;
      }
    }
    if (b < 0) {
      b = static_cast<int32_t>(bundles_.size());
      Bundle bd;
      bd.slice_off = static_cast<uint32_t>(slice_pool_.size());
      bd.slice_len = static_cast<uint32_t>(slice_len);
      slice_pool_.insert(slice_pool_.end(), slice, slice + slice_len);
      bundles_.push_back(bd);
      chain.push_back(b);
    }
    Bundle& bd = bundles_[static_cast<size_t>(b)];
    bd.cap_sum += w;
    ++bd.members;
    flow_bundle_[i] = b;
  }

  // Pass 3: water-fill bundles over the interior links only (remapped to a
  // dense 0-based id space), and record the member-level link widths for the
  // shared-bottleneck telemetry.
  bundle_alloc_.BeginEpoch();
  for (size_t l = 0; l < ni; ++l) {
    bundle_alloc_.AddLink(link_cap[num_access_links + l]);
  }
  std::vector<int32_t>& width = access_count_;  // reuse: per interior link now
  width.assign(ni, 0);
  for (const Bundle& bd : bundles_) {
    remap_scratch_.clear();
    for (uint32_t o = 0; o < bd.slice_len; ++o) {
      const int32_t l =
          slice_pool_[bd.slice_off + o] - static_cast<int32_t>(num_access_links);
      remap_scratch_.push_back(l);
      width[static_cast<size_t>(l)] += bd.members;
    }
    bundle_alloc_.AddFlowPath(remap_scratch_.data(), remap_scratch_.size(), bd.cap_sum);
  }
  bundle_alloc_.Allocate();
  for (size_t b = 0; b < bundles_.size(); ++b) {
    bundles_[b].rate = bundle_alloc_.rate(b);
  }
  for (const int32_t c : width) {
    max_interior_link_flows_ = std::max(max_interior_link_flows_, c);
  }

  // Pass 4: split each bundle's rate across its members — bounded water-fill
  // in ascending (member cap, flow index) order, subtracting every grant from
  // one running remainder so the member rates telescope to exactly the bundle
  // rate (the last member absorbs the residue; its cap covers it because the
  // caps sum to the bundle cap >= the bundle rate, up to FP rounding).
  const size_t nb = bundles_.size();
  bundle_off_.assign(nb + 1, 0);
  for (size_t i = 0; i < nf; ++i) {
    if (flow_bundle_[i] >= 0) {
      ++bundle_off_[static_cast<size_t>(flow_bundle_[i]) + 1];
    }
  }
  for (size_t b = 0; b < nb; ++b) {
    bundle_off_[b + 1] += bundle_off_[b];
  }
  bundle_members_.resize(bundle_off_[nb]);
  cursor_.assign(bundle_off_.begin(), bundle_off_.end() - 1);
  for (size_t i = 0; i < nf; ++i) {
    if (flow_bundle_[i] >= 0) {
      bundle_members_[cursor_[static_cast<size_t>(flow_bundle_[i])]++] = {
          member_cap_[i], static_cast<uint32_t>(i)};
    }
  }
  for (size_t b = 0; b < nb; ++b) {
    auto* first = bundle_members_.data() + bundle_off_[b];
    auto* last = bundle_members_.data() + bundle_off_[b + 1];
    std::sort(first, last);
    double remaining = bundles_[b].rate;
    int k = static_cast<int>(last - first);
    for (auto* m = first; m != last; ++m, --k) {
      double r = remaining / k;
      if (m->first < r) {
        r = m->first;
      }
      rates_[m->second] = r;
      remaining -= r;
    }
  }
}

}  // namespace bullet
