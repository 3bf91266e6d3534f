#include "src/sim/topology.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace bullet {

Topology::Topology(int num_nodes)
    : num_nodes_(num_nodes),
      uplinks_(static_cast<size_t>(num_nodes)),
      downlinks_(static_cast<size_t>(num_nodes)) {
  BULLET_CHECK(num_nodes >= 0);
}

SimTime Topology::PathDelay(NodeId src, NodeId dst) const {
  // Uplink first, then interior, then downlink — the legacy mesh summation
  // order (uplink + core + downlink), kept for bit-stable SimTime arithmetic.
  SimTime total = uplink(src).delay;
  for (const int32_t id : InteriorPath(src, dst)) {
    total += interior_link(id).delay;
  }
  total += downlink(dst).delay;
  return total;
}

SimTime Topology::Rtt(NodeId src, NodeId dst) const {
  return PathDelay(src, dst) + PathDelay(dst, src);
}

double Topology::PathLoss(NodeId src, NodeId dst) const {
  // Interior factors first, then uplink, then downlink: on the mesh this is
  // exactly the historical (1-p_core)*(1-p_up)*(1-p_down) product order, so the
  // FP result is bit-identical to the pre-routed implementation.
  double pass = 1.0;
  for (const int32_t id : InteriorPath(src, dst)) {
    pass *= 1.0 - interior_link(id).loss_rate;
  }
  pass *= 1.0 - uplink(src).loss_rate;
  pass *= 1.0 - downlink(dst).loss_rate;
  return 1.0 - pass;
}

void Topology::ScalePathBandwidth(NodeId src, NodeId dst, double factor) {
  for (const int32_t id : InteriorPath(src, dst)) {
    interior_link(id).bandwidth_bps *= factor;
  }
}

void Topology::SetPathBandwidth(NodeId src, NodeId dst, double bps) {
  for (const int32_t id : InteriorPath(src, dst)) {
    interior_link(id).bandwidth_bps = bps;
  }
}

// --- MeshTopology ---

size_t MeshTopology::CheckedCoreSize(int num_nodes) {
  BULLET_CHECK(num_nodes <= kMaxNodes &&
               "mesh core ids src*N+dst overflow int32 past 46340 nodes; use RoutedTopology");
  return static_cast<size_t>(num_nodes) * static_cast<size_t>(num_nodes);
}

MeshTopology::MeshTopology(int num_nodes)
    : Topology(num_nodes), core_(CheckedCoreSize(num_nodes)) {}

Topology::PathView MeshTopology::InteriorPath(NodeId src, NodeId dst) const {
  path_scratch_ = static_cast<int32_t>(CoreIndex(src, dst));
  return PathView{&path_scratch_, 1};
}

MeshTopology MeshTopology::FullMesh(const MeshParams& params, Rng& rng) {
  MeshTopology topo(params.num_nodes);
  for (NodeId n = 0; n < params.num_nodes; ++n) {
    topo.uplink(n) = LinkParams{params.access_bps, params.access_delay, 0.0};
    topo.downlink(n) = LinkParams{params.access_bps, params.access_delay, 0.0};
  }
  for (NodeId s = 0; s < params.num_nodes; ++s) {
    for (NodeId d = 0; d < params.num_nodes; ++d) {
      if (s == d) {
        continue;
      }
      LinkParams& link = topo.core(s, d);
      link.bandwidth_bps = params.core_bps;
      link.delay = rng.UniformInt(params.core_delay_min, params.core_delay_max);
      link.loss_rate = rng.UniformDouble(params.core_loss_min, params.core_loss_max);
    }
  }
  return topo;
}

MeshTopology MeshTopology::ConstrainedAccess(int num_nodes, Rng& /*rng*/) {
  MeshTopology topo(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    topo.uplink(n) = LinkParams{800e3, MsToSim(1), 0.0};
    topo.downlink(n) = LinkParams{800e3, MsToSim(1), 0.0};
  }
  for (NodeId s = 0; s < num_nodes; ++s) {
    for (NodeId d = 0; d < num_nodes; ++d) {
      if (s == d) {
        continue;
      }
      topo.core(s, d) = LinkParams{10e6, MsToSim(1), 0.0};
    }
  }
  return topo;
}

MeshTopology MeshTopology::Uniform(int num_nodes, double link_bps, SimTime link_delay,
                                   double loss_min, double loss_max, Rng& rng) {
  MeshTopology topo(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    // Ample access links so the uniform core links are the constraint.
    topo.uplink(n) = LinkParams{10.0 * link_bps, MsToSim(0), 0.0};
    topo.downlink(n) = LinkParams{10.0 * link_bps, MsToSim(0), 0.0};
  }
  for (NodeId s = 0; s < num_nodes; ++s) {
    for (NodeId d = 0; d < num_nodes; ++d) {
      if (s == d) {
        continue;
      }
      LinkParams& link = topo.core(s, d);
      link.bandwidth_bps = link_bps;
      link.delay = link_delay;
      link.loss_rate = loss_min >= loss_max ? loss_min : rng.UniformDouble(loss_min, loss_max);
    }
  }
  return topo;
}

MeshTopology MeshTopology::WideArea(int num_nodes, Rng& rng) {
  MeshTopology topo(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    // Heterogeneous site uplinks; downstream usually a bit faster than upstream.
    const double up = rng.UniformDouble(1e6, 20e6);
    const double down = up * rng.UniformDouble(1.0, 2.0);
    topo.uplink(n) = LinkParams{up, MsToSim(1), 0.0};
    topo.downlink(n) = LinkParams{down, MsToSim(1), 0.0};
  }
  for (NodeId s = 0; s < num_nodes; ++s) {
    for (NodeId d = 0; d < num_nodes; ++d) {
      if (s == d) {
        continue;
      }
      LinkParams& link = topo.core(s, d);
      // Wide-area paths: rarely the bottleneck but occasionally congested.
      link.bandwidth_bps = rng.UniformDouble(5e6, 50e6);
      link.delay = rng.UniformInt(MsToSim(5), MsToSim(200));
      link.loss_rate = rng.UniformDouble(0.0, 0.01);
    }
  }
  return topo;
}

// --- RoutedTopology ---

RoutedTopology::RoutedTopology(int num_nodes, int num_routers)
    : Topology(num_nodes),
      num_routers_(num_routers),
      attach_(static_cast<size_t>(num_nodes), -1),
      routes_(static_cast<size_t>(num_routers)) {
  BULLET_CHECK(num_routers >= 1);
}

void RoutedTopology::AttachNode(NodeId node, int32_t router) {
  BULLET_CHECK(static_cast<uint32_t>(node) < static_cast<uint32_t>(num_nodes_));
  BULLET_CHECK(static_cast<uint32_t>(router) < static_cast<uint32_t>(num_routers_));
  attach_[static_cast<size_t>(node)] = router;
}

int32_t RoutedTopology::AddEdge(int32_t from_router, int32_t to_router, const LinkParams& params) {
  BULLET_CHECK(!adj_built_ && "edges cannot be added after routes were first queried");
  BULLET_CHECK(static_cast<uint32_t>(from_router) < static_cast<uint32_t>(num_routers_));
  BULLET_CHECK(static_cast<uint32_t>(to_router) < static_cast<uint32_t>(num_routers_));
  BULLET_CHECK(from_router != to_router);
  BULLET_CHECK(params.delay >= 0);
  const int32_t id = static_cast<int32_t>(edges_.size());
  edges_.push_back(Edge{from_router, to_router, params});
  return id;
}

int32_t RoutedTopology::AddDuplexEdge(int32_t a, int32_t b, const LinkParams& params) {
  const int32_t id = AddEdge(a, b, params);
  AddEdge(b, a, params);
  return id;
}

void RoutedTopology::BuildAdjacency() const {
  const size_t r = static_cast<size_t>(num_routers_);
  adj_off_.assign(r + 1, 0);
  for (const Edge& e : edges_) {
    ++adj_off_[static_cast<size_t>(e.from) + 1];
  }
  for (size_t i = 0; i < r; ++i) {
    adj_off_[i + 1] += adj_off_[i];
  }
  adj_edge_.resize(edges_.size());
  std::vector<uint32_t> cursor(adj_off_.begin(), adj_off_.end() - 1);
  for (size_t e = 0; e < edges_.size(); ++e) {
    adj_edge_[cursor[static_cast<size_t>(edges_[e].from)]++] = static_cast<int32_t>(e);
  }
  adj_built_ = true;
}

void RoutedTopology::ComputeRoutesFrom(int32_t src_router) const {
  if (!adj_built_) {
    BuildAdjacency();
  }
  SourceRoutes& out = routes_[static_cast<size_t>(src_router)];
  out.prev_edge.assign(static_cast<size_t>(num_routers_), -1);
  std::vector<SimTime> dist(static_cast<size_t>(num_routers_), -1);  // -1 = unreached

  // Deterministic Dijkstra: the heap orders by (distance, router id), edges
  // relax in AddEdge order, and only strict improvements replace a predecessor,
  // so the shortest-path tree is a pure function of the construction sequence.
  using QueueEntry = std::pair<SimTime, int32_t>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<QueueEntry>> heap;
  dist[static_cast<size_t>(src_router)] = 0;
  heap.push({0, src_router});
  while (!heap.empty()) {
    const auto [d, router] = heap.top();
    heap.pop();
    const size_t ri = static_cast<size_t>(router);
    if (d != dist[ri]) {
      continue;  // stale entry
    }
    for (uint32_t off = adj_off_[ri]; off < adj_off_[ri + 1]; ++off) {
      const int32_t eid = adj_edge_[off];
      const Edge& e = edges_[static_cast<size_t>(eid)];
      const size_t ti = static_cast<size_t>(e.to);
      const SimTime nd = d + e.params.delay;
      if (dist[ti] < 0 || nd < dist[ti]) {
        dist[ti] = nd;
        out.prev_edge[ti] = eid;
        heap.push({nd, e.to});
      }
    }
  }
  out.computed = true;
}

Topology::PathView RoutedTopology::InteriorPath(NodeId src, NodeId dst) const {
  BULLET_CHECK(src != dst);
  const int32_t r0 = attach(src);
  const int32_t r1 = attach(dst);
  BULLET_CHECK(r0 >= 0 && r1 >= 0 && "overlay node queried before AttachNode");
  if (r0 == r1) {
    return PathView{nullptr, 0};  // same stub router: access links only
  }
  if (transit_stub_info() != nullptr) {
    return ComposedInteriorPath(r0, r1);
  }
  const int64_t key = static_cast<int64_t>(r0) * num_routers_ + r1;
  auto it = path_cache_.find(key);
  if (it == path_cache_.end()) {
    if (!routes_[static_cast<size_t>(r0)].computed) {
      ComputeRoutesFrom(r0);
    }
    const SourceRoutes& routes = routes_[static_cast<size_t>(r0)];
    const uint32_t off = static_cast<uint32_t>(path_pool_.size());
    int32_t walk = r1;
    while (walk != r0) {
      const int32_t eid = routes.prev_edge[static_cast<size_t>(walk)];
      BULLET_CHECK(eid >= 0 && "router graph does not connect the attached routers");
      path_pool_.push_back(eid);
      walk = edges_[static_cast<size_t>(eid)].from;
    }
    std::reverse(path_pool_.begin() + off, path_pool_.end());
    const uint32_t len = static_cast<uint32_t>(path_pool_.size()) - off;
    it = path_cache_.emplace(key, std::make_pair(off, len)).first;
  }
  return PathView{path_pool_.data() + it->second.first, it->second.second};
}

std::pair<uint32_t, uint32_t> RoutedTopology::TransitSegment(int32_t tr0, int32_t tr1) const {
  if (tr0 == tr1) {
    return {0, 0};  // both stubs hang off the same transit router
  }
  const size_t slot =
      static_cast<size_t>(tr0) * static_cast<size_t>(transit_stub_info_.num_transit_routers) +
      static_cast<size_t>(tr1);
  if (segment_off_[slot] == kSegmentUnset) {
    if (!routes_[static_cast<size_t>(tr0)].computed) {
      ComputeRoutesFrom(tr0);
    }
    const SourceRoutes& routes = routes_[static_cast<size_t>(tr0)];
    const uint32_t off = static_cast<uint32_t>(segment_pool_.size());
    int32_t walk = tr1;
    while (walk != tr0) {
      const int32_t eid = routes.prev_edge[static_cast<size_t>(walk)];
      BULLET_CHECK(eid >= 0 && "router graph does not connect the transit routers");
      segment_pool_.push_back(eid);
      walk = edges_[static_cast<size_t>(eid)].from;
    }
    std::reverse(segment_pool_.begin() + off, segment_pool_.end());
    segment_off_[slot] = off;
    segment_len_[slot] = static_cast<uint32_t>(segment_pool_.size()) - off;
  }
  return {segment_off_[slot], segment_len_[slot]};
}

Topology::PathView RoutedTopology::ComposedInteriorPath(int32_t r0, int32_t r1) const {
  const TransitStubInfo& ts = transit_stub_info_;
  const int d0 = ts.stub_domain_of_router(r0);
  const int d1 = ts.stub_domain_of_router(r1);
  BULLET_CHECK(d0 >= 0 && d1 >= 0 && "transit-stub routes compose stub-attached nodes only");
  compose_scratch_.clear();
  const int32_t g0 = ts.gateway_router(d0);
  const int32_t g1 = ts.gateway_router(d1);
  if (d0 == d1) {
    // Same stub star: the unique simple path runs member -> gateway -> member
    // (the gateway's only other exit is its transit uplink, which cannot
    // re-enter the star without revisiting the gateway).
    if (r0 != g0) {
      compose_scratch_.push_back(ts.member_uplink_edge[static_cast<size_t>(r0)] + 1);
    }
    if (r1 != g1) {
      compose_scratch_.push_back(ts.member_uplink_edge[static_cast<size_t>(r1)]);
    }
  } else {
    // Cross-stub: up the star (if not at the gateway), up the gateway's single
    // transit uplink, across the shared transit segment, then mirror down.
    if (r0 != g0) {
      compose_scratch_.push_back(ts.member_uplink_edge[static_cast<size_t>(r0)] + 1);
    }
    compose_scratch_.push_back(ts.gateway_uplink_edge[static_cast<size_t>(d0)] + 1);
    const auto [off, len] = TransitSegment(ts.transit_router(d0), ts.transit_router(d1));
    compose_scratch_.insert(compose_scratch_.end(), segment_pool_.begin() + off,
                            segment_pool_.begin() + off + len);
    compose_scratch_.push_back(ts.gateway_uplink_edge[static_cast<size_t>(d1)]);
    if (r1 != g1) {
      compose_scratch_.push_back(ts.member_uplink_edge[static_cast<size_t>(r1)]);
    }
  }
  return PathView{compose_scratch_.data(), static_cast<uint32_t>(compose_scratch_.size())};
}

void RoutedTopology::PrewarmRoutes() const {
  if (!adj_built_) {
    BuildAdjacency();
  }
  if (transit_stub_info() != nullptr) {
    // Only transit-router trees are needed (stub legs come straight from the
    // recorded build edges); warm one tree per transit router serving an
    // attached node's domain, then every segment between warmed routers so
    // the segment cache is read-only afterwards.
    const TransitStubInfo& ts = transit_stub_info_;
    for (const int32_t router : attach_) {
      if (router < 0) {
        continue;
      }
      const int d = ts.stub_domain_of_router(router);
      BULLET_CHECK(d >= 0 && "transit-stub routes compose stub-attached nodes only");
      const int32_t tr = ts.transit_router(d);
      if (!routes_[static_cast<size_t>(tr)].computed) {
        ComputeRoutesFrom(tr);
      }
    }
    for (int32_t a = 0; a < ts.num_transit_routers; ++a) {
      if (!routes_[static_cast<size_t>(a)].computed) {
        continue;
      }
      for (int32_t b = 0; b < ts.num_transit_routers; ++b) {
        if (a != b && routes_[static_cast<size_t>(b)].computed) {
          TransitSegment(a, b);
        }
      }
    }
    // Size the compose scratch for the longest possible route (two stub legs,
    // two gateway uplinks, widest segment) so post-prewarm queries never
    // allocate and route_cache_bytes stays flat.
    uint32_t max_segment = 0;
    for (const uint32_t len : segment_len_) {
      max_segment = std::max(max_segment, len);
    }
    compose_scratch_.reserve(static_cast<size_t>(max_segment) + 4);
    return;
  }
  for (const int32_t router : attach_) {
    if (router >= 0 && !routes_[static_cast<size_t>(router)].computed) {
      ComputeRoutesFrom(router);
    }
  }
}

size_t RoutedTopology::MemoryFootprintBytes() const {
  return uplinks_.capacity() * sizeof(LinkParams) + downlinks_.capacity() * sizeof(LinkParams) +
         attach_.capacity() * sizeof(int32_t) + edges_.capacity() * sizeof(Edge);
}

size_t RoutedTopology::route_cache_bytes() const {
  // Per-pair map accounting is honest about container overhead: each hash node
  // carries the key/value pair plus a next pointer and an allocation header,
  // and the bucket array itself is resident memory. (The old formula counted
  // only key+value payload, so cache growth was under-reported by roughly the
  // bucket array plus one pointer-pair per routed pair.)
  constexpr size_t kMapNodeBytes =
      sizeof(std::pair<const int64_t, std::pair<uint32_t, uint32_t>>) + 2 * sizeof(void*);
  size_t bytes = adj_off_.capacity() * sizeof(uint32_t) + adj_edge_.capacity() * sizeof(int32_t) +
                 path_pool_.capacity() * sizeof(int32_t) +
                 routes_.capacity() * sizeof(SourceRoutes) +
                 path_cache_.size() * kMapNodeBytes +
                 path_cache_.bucket_count() * sizeof(void*) +
                 segment_off_.capacity() * sizeof(uint32_t) +
                 segment_len_.capacity() * sizeof(uint32_t) +
                 segment_pool_.capacity() * sizeof(int32_t) +
                 compose_scratch_.capacity() * sizeof(int32_t);
  for (const SourceRoutes& r : routes_) {
    bytes += r.prev_edge.capacity() * sizeof(int32_t);
  }
  return bytes;
}

RoutedTopology RoutedTopology::TransitStub(const TransitStubParams& p, Rng& rng) {
  BULLET_CHECK(p.num_nodes >= 1 && p.transit_domains >= 1 && p.routers_per_transit >= 1 &&
               p.stub_domains_per_transit_router >= 1 && p.routers_per_stub >= 1);
  const int num_transit = p.transit_domains * p.routers_per_transit;
  const int num_stub_domains = num_transit * p.stub_domains_per_transit_router;
  const int num_routers = num_transit + num_stub_domains * p.routers_per_stub;
  RoutedTopology topo(p.num_nodes, num_routers);

  for (NodeId n = 0; n < p.num_nodes; ++n) {
    topo.uplink(n) = LinkParams{p.access_bps, p.access_delay, 0.0};
    topo.downlink(n) = LinkParams{p.access_bps, p.access_delay, 0.0};
  }

  // Transit-tier links draw a per-duplex-link delay (symmetric, so routes are
  // direction-symmetric) and an optional loss rate.
  auto transit_link = [&rng, &p]() {
    LinkParams link;
    link.bandwidth_bps = p.transit_bps;
    link.delay = rng.UniformInt(p.transit_delay_min, p.transit_delay_max);
    link.loss_rate = p.transit_loss_min >= p.transit_loss_max
                         ? p.transit_loss_min
                         : rng.UniformDouble(p.transit_loss_min, p.transit_loss_max);
    return link;
  };

  // Intra-domain rings.
  for (int t = 0; t < p.transit_domains; ++t) {
    const int32_t base = t * p.routers_per_transit;
    const int k = p.routers_per_transit;
    if (k == 2) {
      topo.AddDuplexEdge(base, base + 1, transit_link());
    } else if (k > 2) {
      for (int i = 0; i < k; ++i) {
        topo.AddDuplexEdge(base + i, base + (i + 1) % k, transit_link());
      }
    }
  }
  // Inter-domain links between random representative routers of each domain pair.
  for (int i = 0; i < p.transit_domains; ++i) {
    for (int j = i + 1; j < p.transit_domains; ++j) {
      const int32_t a = i * p.routers_per_transit +
                        static_cast<int32_t>(rng.UniformInt(0, p.routers_per_transit - 1));
      const int32_t b = j * p.routers_per_transit +
                        static_cast<int32_t>(rng.UniformInt(0, p.routers_per_transit - 1));
      topo.AddDuplexEdge(a, b, transit_link());
    }
  }
  // Stub domains: stars whose gateway router uplinks to the transit router.
  topo.transit_stub_info_.num_transit_routers = num_transit;
  topo.transit_stub_info_.num_stub_domains = num_stub_domains;
  topo.transit_stub_info_.routers_per_stub = p.routers_per_stub;
  topo.transit_stub_info_.stub_domains_per_transit_router = p.stub_domains_per_transit_router;
  topo.transit_stub_info_.gateway_uplink_edge.reserve(static_cast<size_t>(num_stub_domains));
  topo.transit_stub_info_.member_uplink_edge.assign(static_cast<size_t>(num_routers), -1);
  const size_t segments = static_cast<size_t>(num_transit) * static_cast<size_t>(num_transit);
  topo.segment_off_.assign(segments, kSegmentUnset);
  topo.segment_len_.assign(segments, 0);
  std::vector<int32_t> stub_routers;
  stub_routers.reserve(static_cast<size_t>(num_stub_domains) *
                       static_cast<size_t>(p.routers_per_stub));
  int32_t next_router = num_transit;
  for (int tr = 0; tr < num_transit; ++tr) {
    for (int s = 0; s < p.stub_domains_per_transit_router; ++s) {
      const int32_t gateway = next_router;
      next_router += p.routers_per_stub;
      topo.transit_stub_info_.gateway_uplink_edge.push_back(topo.AddDuplexEdge(
          tr, gateway, LinkParams{p.transit_stub_bps, p.transit_stub_delay, 0.0}));
      stub_routers.push_back(gateway);
      for (int m = 1; m < p.routers_per_stub; ++m) {
        topo.transit_stub_info_.member_uplink_edge[static_cast<size_t>(gateway + m)] =
            topo.AddDuplexEdge(gateway, gateway + m, LinkParams{p.stub_bps, p.stub_delay, 0.0});
        stub_routers.push_back(gateway + m);
      }
    }
  }

  // Spread overlay nodes across stub routers: shuffled round robin, so domains
  // fill evenly but the node->stub mapping varies with the seed.
  rng.Shuffle(stub_routers);
  for (NodeId n = 0; n < p.num_nodes; ++n) {
    topo.AttachNode(n, stub_routers[static_cast<size_t>(n) % stub_routers.size()]);
  }
  return topo;
}

}  // namespace bullet
