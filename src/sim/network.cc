#include "src/sim/network.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/common/profiler.h"

namespace bullet {

void Network::MsgRing::push_back(QueuedMsg qm) {
  if (size_ == buf_.size()) {
    // Grow to the next power of two, unrolling the ring into natural order.
    const size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<QueuedMsg> grown;
    grown.reserve(new_cap);
    for (size_t i = 0; i < size_; ++i) {
      grown.push_back(std::move(buf_[(head_ + i) & (buf_.size() - 1)]));
    }
    grown.resize(new_cap);
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(qm);
  ++size_;
}

void Network::MsgRing::pop_front() {
  buf_[head_] = QueuedMsg{};  // release the message now, not at overwrite time
  head_ = (head_ + 1) & (buf_.size() - 1);
  --size_;
}

void Network::MsgRing::clear_and_release() {
  buf_.clear();
  buf_.shrink_to_fit();
  head_ = 0;
  size_ = 0;
}

Network::Network(std::unique_ptr<Topology> topology, NetworkConfig config, uint64_t seed)
    : topology_(std::move(topology)),
      config_(config),
      rng_(seed),
      handlers_(static_cast<size_t>(topology_->num_nodes()), nullptr),
      tx_bytes_(static_cast<size_t>(topology_->num_nodes()), 0),
      rx_bytes_(static_cast<size_t>(topology_->num_nodes()), 0),
      failed_(static_cast<size_t>(topology_->num_nodes()), 0) {
  const size_t interior_ids = static_cast<size_t>(topology_->interior_id_limit());
  interior_epoch_.assign(interior_ids, 0);
  interior_link_id_.assign(interior_ids, -1);
  const size_t access_ids = 2 * static_cast<size_t>(topology_->num_nodes());
  access_flows_.assign(access_ids, 0);
  access_touched_.assign((access_ids + 63) / 64, 0);
  access_link_id_.assign(access_ids, -1);
}

void Network::SetHandler(NodeId node, NetHandler* handler) {
  handlers_[static_cast<size_t>(node)] = handler;
}

Network::Conn* Network::GetConn(ConnId id) {
  if (id < 0 || static_cast<size_t>(id) >= conns_.size()) {
    return nullptr;
  }
  return conns_[static_cast<size_t>(id)].get();
}

const Network::Conn* Network::GetConn(ConnId id) const {
  return const_cast<Network*>(this)->GetConn(id);
}

int Network::EndpointIndex(const Conn& c, NodeId node) {
  if (c.node[0] == node) {
    return 0;
  }
  if (c.node[1] == node) {
    return 1;
  }
  return -1;
}

ConnId Network::Connect(NodeId from, NodeId to) {
  if (from == to || IsNodeFailed(from) || IsNodeFailed(to)) {
    return -1;
  }
  const ConnId id = static_cast<ConnId>(conns_.size());
  auto conn = std::make_unique<Conn>();
  conn->id = id;
  conn->node[0] = from;
  conn->node[1] = to;
  for (int i = 0; i < 2; ++i) {
    const NodeId src = conn->node[i];
    const NodeId dst = conn->node[1 - i];
    {
      BULLET_PROFILE_SCOPE(ProfilePhase::kTopologyMetrics);
      conn->path[i].path_delay = topology_->PathDelay(src, dst);
      conn->path[i].loss = topology_->PathLoss(src, dst);
    }
    {
      BULLET_PROFILE_SCOPE(ProfilePhase::kPathLookup);
      const Topology::PathView route = topology_->InteriorPath(src, dst);
      conn->path[i].interior_off = static_cast<uint32_t>(path_pool_.size());
      conn->path[i].interior_len = route.size;
      path_pool_.insert(path_pool_.end(), route.begin(), route.end());
      path_pool_open_ += route.size;
    }
  }
  // Topology::Rtt is exactly this sum: delays are integers fixed for the run.
  conn->path[0].rtt = conn->path[1].rtt = conn->path[0].path_delay + conn->path[1].path_delay;
  const SimTime rtt = conn->path[0].rtt;
  conn->open_pos = static_cast<uint32_t>(open_conns_.size());
  conns_.push_back(std::move(conn));
  conn_busy_mask_.push_back(0);
  if (busy_pos_.size() * 64 <= open_conns_.size()) {
    busy_pos_.push_back(0);
  }
  open_conns_.push_back(id);

  // TCP three-way handshake plus the first application-level write.
  const SimTime established_at = now() + rtt * 3 / 2;
  queue_.Schedule(established_at, [this, id] {
    Conn* c = GetConn(id);
    if (c == nullptr || c->closed) {
      return;
    }
    c->established = true;
    for (int i = 0; i < 2; ++i) {
      if (!c->dir[i].queue.empty()) {
        c->dir[i].tcp.OnBecameActive(now());
        ActivateDirection(*c, i);
      } else {
        c->dir[i].idle_since = now();
      }
    }
    for (int i = 0; i < 2; ++i) {
      NetHandler* h = handlers_[static_cast<size_t>(c->node[i])];
      if (h != nullptr) {
        h->OnConnUp(id, c->node[1 - i], /*initiator=*/i == 0);
      }
    }
  });
  return id;
}

void Network::Close(ConnId conn_id) {
  Conn* c = GetConn(conn_id);
  if (c == nullptr || c->closed) {
    return;
  }
  c->closed = true;
  for (auto& dir : c->dir) {
    if (c->established && !dir.queue.empty()) {
      --active_dirs_;
    }
    dir.queue.clear_and_release();
    dir.queued_bytes = 0;
    dir.rate_bps = 0.0;
  }
  SetConnBusyMask(*c, 0);
  // The next quantum boundary compacts this entry out of open_conns_ (doing it
  // right here would reorder the list differently from one batched pass and
  // change max-min tie-breaking; see RebuildAndAllocate).
  ++pending_close_;
  alloc_dirty_ = true;
  // Notify both ends asynchronously; the remote end hears after one path delay.
  for (int i = 0; i < 2; ++i) {
    const NodeId endpoint = c->node[i];
    const NodeId peer = c->node[1 - i];
    const SimTime at = i == 0 ? now() : now() + c->path[0].path_delay;
    queue_.Schedule(at, [this, conn_id, endpoint, peer] {
      NetHandler* h = handlers_[static_cast<size_t>(endpoint)];
      if (h != nullptr) {
        h->OnConnDown(conn_id, peer);
      }
    });
  }
}

bool Network::IsOpen(ConnId conn_id) const {
  const Conn* c = GetConn(conn_id);
  return c != nullptr && !c->closed;
}

bool Network::Send(ConnId conn_id, NodeId from, std::unique_ptr<Message> msg) {
  Conn* c = GetConn(conn_id);
  if (c == nullptr || c->closed || msg == nullptr) {
    return false;
  }
  const int idx = EndpointIndex(*c, from);
  if (idx < 0) {
    return false;
  }
  Direction& dir = c->dir[idx];
  if (dir.queue.empty() && c->established) {
    dir.tcp.OnBecameActive(now());
    ActivateDirection(*c, idx);
  }
  dir.queued_bytes += msg->wire_bytes;
  const double bytes = static_cast<double>(std::max<int64_t>(msg->wire_bytes, 1));
  dir.queue.push_back(QueuedMsg{std::move(msg), bytes});
  return true;
}

// Idle -> busy transition of an established direction: restart cap tracking and
// mark the flow set dirty so the next quantum re-water-fills.
void Network::ActivateDirection(Conn& c, int dir_idx) {
  c.dir[dir_idx].cap_steady = false;
  const uint8_t mask = conn_busy_mask_[static_cast<size_t>(c.id)];
  SetConnBusyMask(c, mask | static_cast<uint8_t>(1 << dir_idx));
  ++active_dirs_;
  alloc_dirty_ = true;
}

void Network::DeactivateDirection(Conn& c, int dir_idx) {
  Direction& dir = c.dir[dir_idx];
  dir.idle_since = now();
  dir.rate_bps = 0.0;
  const uint8_t mask = conn_busy_mask_[static_cast<size_t>(c.id)];
  SetConnBusyMask(c, mask & static_cast<uint8_t>(~(1 << dir_idx)));
  --active_dirs_;
  alloc_dirty_ = true;
}

// Stores the connection's busy mask and keeps the busy index and the busy-flow
// counts of the access links in step.
void Network::SetConnBusyMask(Conn& c, uint8_t mask) {
  const uint8_t flipped = conn_busy_mask_[static_cast<size_t>(c.id)] ^ mask;
  conn_busy_mask_[static_cast<size_t>(c.id)] = mask;
  uint64_t& word = busy_pos_[c.open_pos / 64];
  const uint64_t bit = uint64_t{1} << (c.open_pos % 64);
  word = mask != 0 ? (word | bit) : (word & ~bit);
  const int n = topology_->num_nodes();
  for (int i = 0; i < 2; ++i) {
    if ((flipped & (1 << i)) != 0) {
      const int32_t delta = (mask & (1 << i)) != 0 ? 1 : -1;
      CountAccessFlow(static_cast<size_t>(c.node[i]), delta);
      CountAccessFlow(static_cast<size_t>(n + c.node[1 - i]), delta);
    }
  }
}

void Network::CountAccessFlow(size_t key, int32_t delta) {
  const int32_t flows = access_flows_[key] += delta;
  const uint64_t bit = uint64_t{1} << (key % 64);
  uint64_t& word = access_touched_[key / 64];
  word = flows > 0 ? (word | bit) : (word & ~bit);
}

int64_t Network::QueuedBytes(ConnId conn_id, NodeId from) const {
  const Conn* c = GetConn(conn_id);
  if (c == nullptr) {
    return 0;
  }
  const int idx = EndpointIndex(*c, from);
  return idx < 0 ? 0 : c->dir[idx].queued_bytes;
}

SimTime Network::IdleTime(ConnId conn_id, NodeId from) const {
  const Conn* c = GetConn(conn_id);
  if (c == nullptr) {
    return 0;
  }
  const int idx = EndpointIndex(*c, from);
  if (idx < 0 || !c->dir[idx].queue.empty()) {
    return 0;
  }
  return now() - c->dir[idx].idle_since;
}

double Network::CurrentRateBps(ConnId conn_id, NodeId from) const {
  const Conn* c = GetConn(conn_id);
  if (c == nullptr) {
    return 0.0;
  }
  const int idx = EndpointIndex(*c, from);
  return idx < 0 ? 0.0 : c->dir[idx].rate_bps;
}

double Network::InteriorLinkAllocatedBps(int32_t link_id) const {
  double bps = 0.0;
  for (const ConnId id : open_conns_) {
    const Conn* c = GetConn(id);
    if (c == nullptr || !c->established || c->closed) {
      continue;
    }
    for (int i = 0; i < 2; ++i) {
      if (c->dir[i].queued_bytes <= 0) {
        continue;
      }
      for (const int32_t* it = PathInteriorBegin(c->path[i]);
           it != PathInteriorEnd(c->path[i]); ++it) {
        if (*it == link_id) {
          bps += c->dir[i].rate_bps;
          break;
        }
      }
    }
  }
  return bps;
}

void Network::FailNode(NodeId node) {
  if (IsNodeFailed(node)) {
    return;
  }
  failed_[static_cast<size_t>(node)] = 1;
  for (const ConnId id : open_conns_) {
    const Conn* c = GetConn(id);
    if (c != nullptr && !c->closed && (c->node[0] == node || c->node[1] == node)) {
      Close(id);
    }
  }
}

void Network::ScheduleNextTick() {
  queue_.ScheduleAfter(config_.quantum, [this] { Tick(); });
}

// Removes closed connections in one ascending-position swap-with-back pass — the
// exact pass the pre-PR tick ran every quantum. Batch shape matters: the
// resulting permutation feeds the allocator, whose FP tie-breaking depends on
// flow order, so closes are compacted per quantum boundary rather than one by
// one at Close() time. A moved connection takes its position and its busy-index
// bit along (a closed connection's bit is already clear). A removed connection's
// Conn is freed: every entry point treats a missing Conn like a closed one, and
// cached_flows_ cannot dangle because the Close() that led here set
// alloc_dirty_, so the flow list is rebuilt before it is next read. Once the
// removed connections' route slices hold more than half of path_pool_, the
// open connections' slices are packed to its front (CompactPathPool).
void Network::CompactOpenConns() {
  for (size_t i = 0; i < open_conns_.size();) {
    const ConnId id = open_conns_[i];
    const Conn* c = GetConn(id);
    if (c == nullptr || c->closed) {
      if (c != nullptr) {
        path_pool_open_ -= c->path[0].interior_len + c->path[1].interior_len;
      }
      conns_[static_cast<size_t>(id)].reset();
      const size_t last = open_conns_.size() - 1;
      open_conns_[i] = open_conns_[last];
      open_conns_.pop_back();
      if (i != last) {
        conns_[static_cast<size_t>(open_conns_[i])]->open_pos = static_cast<uint32_t>(i);
        const uint64_t busy = (busy_pos_[last / 64] >> (last % 64)) & 1;
        busy_pos_[last / 64] &= ~(uint64_t{1} << (last % 64));
        busy_pos_[i / 64] |= busy << (i % 64);
      }
    } else {
      ++i;
    }
  }
  pending_close_ = 0;
  if (path_pool_.size() > 2 * path_pool_open_) {
    CompactPathPool();
  }
}

// Copies every open connection's route slices, in open_conns_ order, to the
// front of path_pool_ and rewrites their offsets; the pool keeps its capacity,
// so path_pool_bytes() stays the pool's peak. Routes are only ever read through
// a connection's (offset, length), so results cannot change.
void Network::CompactPathPool() {
  std::vector<int32_t> packed;
  packed.reserve(path_pool_open_);
  for (const ConnId id : open_conns_) {
    Conn& c = *conns_[static_cast<size_t>(id)];
    for (PathCache& path : c.path) {
      const uint32_t off = static_cast<uint32_t>(packed.size());
      packed.insert(packed.end(), PathInteriorBegin(path), PathInteriorEnd(path));
      path.interior_off = off;
    }
  }
  BULLET_CHECK(packed.size() == path_pool_open_);
  std::copy(packed.begin(), packed.end(), path_pool_.begin());
  path_pool_.resize(packed.size());
}

void Network::Tick() {
  const double dt_sec = SimToSec(now() - last_tick_);
  last_tick_ = now();

  if (pending_close_ > 0) {
    CompactOpenConns();
  }

  if (active_dirs_ > 0) {
    if (alloc_dirty_ || !CapacitiesUnchanged()) {
      RebuildAndAllocate();
    }
#ifdef BULLET_VERIFY_CACHED_RATES
    VerifyCachedRates();
#endif
    AdvanceTransmissions(dt_sec);
  }

  ScheduleNextTick();
}

// True when every link capacity the last allocation used is unchanged, so the
// cached rates are still exact. Covers the access and interior links that
// carried flows; links without flows cannot influence the allocation.
bool Network::CapacitiesUnchanged() const {
  for (const LinkCap& lc : access_caps_) {
    if (AccessLinkCapacity(lc.id) != lc.cap) {
      return false;
    }
  }
  for (const LinkCap& lc : interior_caps_) {
    if (topology_->interior_link(lc.id).bandwidth_bps != lc.cap) {
      return false;
    }
  }
  return true;
}

double Network::AccessLinkCapacity(int32_t key) const {
  const int n = topology_->num_nodes();
  return key < n ? topology_->uplink(key).bandwidth_bps
                 : topology_->downlink(key - n).bandwidth_bps;
}

int32_t Network::InteriorLinkIdForEpoch(int32_t interior_id) {
  const size_t key = static_cast<size_t>(interior_id);
  // The epoch tables were sized from interior_id_limit() at construction; a
  // topology that grew interior links afterwards would index past them.
  BULLET_CHECK(key < interior_epoch_.size() &&
               "topology gained interior links after the network was built");
  if (interior_epoch_[key] != epoch_counter_) {
    interior_epoch_[key] = epoch_counter_;
    const double cap = topology_->interior_link(interior_id).bandwidth_bps;
    interior_link_id_[key] = alloc_.AddLink(cap);
    interior_caps_.push_back(LinkCap{interior_id, cap});
  }
  return interior_link_id_[key];
}

// Rebuilds the active flow set and re-runs water-filling, at a cost of the busy
// flows and their paths. Flow order and link numbering replicate the pre-routed
// tick up to renaming: flows in open_conns_ scan order; links numbered touched
// access links first, in legacy id order (uplink(i) = i before downlink(i) =
// n + i), then interior links in first-use order. Links no flow crosses never
// enter the allocator's heap, and leaving them out keeps the id order of the
// rest, which is all its (share, link id) tie rule reads, so every FP result
// stays the same (see bandwidth_allocator.h).
void Network::RebuildAndAllocate() {
  BULLET_PROFILE_SCOPE(ProfilePhase::kAllocatorEpoch);
  ++allocator_epochs_;
  const int n = topology_->num_nodes();
  alloc_.BeginEpoch();
  ++epoch_counter_;
  access_caps_.clear();
  interior_caps_.clear();
  cached_flows_.clear();
  ramping_flows_ = 0;

  // Register the access links the busy flows cross, with their current
  // capacities; the interior links follow in first-use order.
  for (size_t w = 0; w < access_touched_.size(); ++w) {
    for (uint64_t bits = access_touched_[w]; bits != 0; bits &= bits - 1) {
      const size_t key = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      const double cap = AccessLinkCapacity(static_cast<int32_t>(key));
      access_link_id_[key] = alloc_.AddLink(cap);
      access_caps_.push_back(LinkCap{static_cast<int32_t>(key), cap});
    }
  }
  const size_t num_access = alloc_.num_links();

  // The busy flows, from the busy index in position order.
  const size_t open = open_conns_.size();
  for (size_t w = 0; w * 64 < open; ++w) {
    for (uint64_t bits = busy_pos_[w]; bits != 0; bits &= bits - 1) {
      const size_t pos = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      BULLET_CHECK(pos < open && "busy index bit past the open-connection list");
      const ConnId id = open_conns_[pos];
      const uint8_t busy = conn_busy_mask_[static_cast<size_t>(id)];
      Conn* c = conns_[static_cast<size_t>(id)].get();
      for (int i = 0; i < 2; ++i) {
        if ((busy & (1 << i)) == 0) {
          continue;
        }
        Direction& dir = c->dir[i];
        // Allocator link list: uplink, downlink, then the interior links — the
        // historical (src, n+dst, core) order generalized to routed paths.
        flow_link_scratch_.clear();
        flow_link_scratch_.push_back(access_link_id_[static_cast<size_t>(c->node[i])]);
        flow_link_scratch_.push_back(access_link_id_[static_cast<size_t>(n + c->node[1 - i])]);
        for (const int32_t* it = PathInteriorBegin(c->path[i]);
             it != PathInteriorEnd(c->path[i]); ++it) {
          flow_link_scratch_.push_back(InteriorLinkIdForEpoch(*it));
        }
        if (!dir.cap_steady) {
          bool steady = false;
          dir.cap_cache =
              TcpRateCapBps(dir.tcp, now(), c->path[i].rtt, c->path[i].loss, &steady);
          dir.cap_steady = steady;
          if (!steady) {
            ++ramping_flows_;
          }
        }
        alloc_.AddFlowPath(flow_link_scratch_.data(), flow_link_scratch_.size(), dir.cap_cache);
        cached_flows_.push_back(CachedFlow{c, i});
      }
    }
  }

  alloc_.Allocate();
  // Shared-bottleneck introspection: widest interior link of this epoch (the
  // access links come first). The CSR row widths are valid after Allocate().
  for (size_t l = num_access; l < alloc_.num_links(); ++l) {
    max_interior_link_flows_ = std::max(max_interior_link_flows_, alloc_.flows_on_link(l));
  }
  // Ramping caps change next quantum, which changes the allocation; otherwise the
  // cached result stays exact until an activation/drain/close/capacity change.
  alloc_dirty_ = ramping_flows_ > 0;
}

void Network::AdvanceTransmissions(double dt_sec) {
  for (size_t fi = 0; fi < cached_flows_.size(); ++fi) {
    Conn* c = cached_flows_[fi].conn;
    if (!c->closed) {
      AdvanceDirection(*c, cached_flows_[fi].dir_idx, alloc_.rate(fi), dt_sec);
    }
  }
}

// Transmits up to one quantum's worth of a busy direction's queue at `rate_bps`,
// scheduling the delivery of every message that completes; a direction whose
// queue drains goes idle.
void Network::AdvanceDirection(Conn& c, int dir_idx, double rate_bps, double dt_sec) {
  Direction& dir = c.dir[dir_idx];
  if (dir.queue.empty()) {
    return;
  }
  dir.rate_bps = rate_bps;
  dir.tcp.last_busy = now();
  double budget = dir.rate_bps / 8.0 * dt_sec;
  while (!dir.queue.empty() && budget >= dir.queue.front().remaining_bytes) {
    QueuedMsg qm = std::move(dir.queue.front());
    dir.queue.pop_front();
    budget -= qm.remaining_bytes;
    dir.queued_bytes -= qm.msg->wire_bytes;
    tx_bytes_[static_cast<size_t>(c.node[dir_idx])] += qm.msg->wire_bytes;
    // Delivery is scheduled, not synchronous, so no reentrancy happens here.
    EnqueueDelivery(c.id, c, dir_idx, std::move(qm.msg));
  }
  if (!dir.queue.empty()) {
    dir.queue.front().remaining_bytes -= budget;
  } else {
    DeactivateDirection(c, dir_idx);
  }
}

Network::FullFlowSet Network::AssembleFullFlowSet() const {
  const int n = topology_->num_nodes();
  FullFlowSet set;
  set.capacities.resize(static_cast<size_t>(2 * n));
  for (NodeId i = 0; i < n; ++i) {
    set.capacities[static_cast<size_t>(i)] = topology_->uplink(i).bandwidth_bps;
    set.capacities[static_cast<size_t>(n + i)] = topology_->downlink(i).bandwidth_bps;
  }
  std::unordered_map<int32_t, int32_t> interior_ids;
  for (const ConnId id : open_conns_) {
    const Conn* c = GetConn(id);
    if (!c->established) {
      continue;
    }
    for (int i = 0; i < 2; ++i) {
      const Direction& dir = c->dir[i];
      if (dir.queue.empty()) {
        continue;
      }
      const NodeId src = c->node[i];
      const NodeId dst = c->node[1 - i];
      PathFlowSpec flow;
      flow.links.reserve(2 + c->path[i].interior_len);
      flow.links.push_back(src);
      flow.links.push_back(static_cast<int32_t>(n) + dst);
      for (const int32_t* pi = PathInteriorBegin(c->path[i]); pi != PathInteriorEnd(c->path[i]);
           ++pi) {
        auto [it, inserted] =
            interior_ids.emplace(*pi, static_cast<int32_t>(set.capacities.size()));
        if (inserted) {
          set.capacities.push_back(topology_->interior_link(*pi).bandwidth_bps);
        }
        flow.links.push_back(it->second);
      }
      // The PathCache snapshot equals the live Rtt/PathLoss lookups the pre-PR
      // code performed here: delay and loss are static for a run's lifetime.
      flow.cap_bps = TcpRateCapBps(dir.tcp, now(), c->path[i].rtt, c->path[i].loss);
      set.flows.push_back(std::move(flow));
      set.dirs.emplace_back(id, i);
    }
  }
  return set;
}

// The flows and rates this quantum transmits at must be bit for bit the ones a
// full recompute would produce now.
void Network::VerifyCachedRates() const {
  FullFlowSet full = AssembleFullFlowSet();
  AllocateMaxMinPaths(full.flows, full.capacities);
  BULLET_CHECK(full.flows.size() == cached_flows_.size() && "cached flow set is stale");
  for (size_t fi = 0; fi < full.flows.size(); ++fi) {
    BULLET_CHECK(full.dirs[fi].first == cached_flows_[fi].conn->id &&
                 full.dirs[fi].second == cached_flows_[fi].dir_idx && "cached flow order differs");
    BULLET_CHECK(std::bit_cast<uint64_t>(full.flows[fi].rate_bps) ==
                     std::bit_cast<uint64_t>(alloc_.rate(fi)) &&
                 "cached rate differs from a full recompute");
  }
}

void Network::EnqueueDelivery(ConnId conn_id, Conn& c, int sender_idx, std::unique_ptr<Message> msg) {
  const PathCache& path = c.path[sender_idx];
  Direction& dir = c.dir[sender_idx];

  // Messages that suffer packet loss arrive late (TCP retransmission plus
  // head-of-line blocking). Throughput loss is modelled separately via the
  // Mathis cap; this term affects message latency, which is what makes
  // availability information stale on lossy paths (Section 4.3).
  SimTime delivered_at = now() + path.path_delay;
  const double p = path.loss;
  if (p > 0.0) {
    const double packets =
        std::max(1.0, std::ceil(static_cast<double>(msg->wire_bytes) / kTcpMssBytes));
    const double p_msg = 1.0 - std::pow(1.0 - p, packets);
    if (rng_.Bernoulli(p_msg)) {
      // Fast retransmit in the common case; occasionally a full RTO.
      const SimTime rtt = path.rtt;
      SimTime penalty = rtt + rtt / 2;
      if (rng_.Bernoulli(0.2)) {
        penalty = std::max<SimTime>(MsToSim(200), 2 * rtt);
      }
      delivered_at += penalty;
    }
  }
  delivered_at = std::max(delivered_at, dir.delivery_floor);
  dir.delivery_floor = delivered_at;

  const int receiver_idx = 1 - sender_idx;
  queue_.Schedule(delivered_at, [this, conn_id, receiver_idx, msg = std::move(msg)]() mutable {
    DeliverMessage(conn_id, receiver_idx, std::move(msg));
  });
}

void Network::DeliverMessage(ConnId conn_id, int receiver_idx, std::unique_ptr<Message> msg) {
  Conn* c = GetConn(conn_id);
  if (c == nullptr || c->closed || msg == nullptr) {
    return;
  }
  const NodeId receiver = c->node[receiver_idx];
  const NodeId sender = c->node[1 - receiver_idx];
  rx_bytes_[static_cast<size_t>(receiver)] += msg->wire_bytes;
  NetHandler* h = handlers_[static_cast<size_t>(receiver)];
  if (h != nullptr) {
    BULLET_PROFILE_SCOPE(ProfilePhase::kProtocolLogic);
    h->OnMessage(conn_id, sender, std::move(msg));
  }
}

int64_t Network::total_bytes_sent() const {
  int64_t total = 0;
  for (const int64_t b : tx_bytes_) {
    total += b;
  }
  return total;
}

size_t Network::route_cache_bytes() const {
  const RoutedTopology* routed = topology_->AsRouted();
  return routed != nullptr ? routed->route_cache_bytes() : 0;
}

size_t Network::path_pool_bytes() const { return path_pool_.capacity() * sizeof(int32_t); }

void Network::Run(SimTime until) {
  if (!tick_scheduled_) {
    tick_scheduled_ = true;
    ScheduleNextTick();
  }
  events_executed_ += queue_.RunUntil(until);
  // Publish the deltas since the last publication into the harness's installed
  // per-run counters (if any); several networks may feed one run's totals.
  if (RunCounters* rc = RunCounters::Current()) {
    rc->events_executed += events_executed_ - rc_published_events_;
    rc->allocator_epochs += allocator_epochs_ - published_epochs_;
    const int64_t bytes = total_bytes_sent();
    rc->sim_bytes_sent += static_cast<uint64_t>(bytes - published_bytes_);
    rc_published_events_ = events_executed_;
    published_epochs_ = allocator_epochs_;
    published_bytes_ = bytes;
  }
}

}  // namespace bullet
