// Emulated topologies.
//
// Every topology gives each overlay node a dedicated inbound and outbound access
// link; what lies between the sender's uplink and the receiver's downlink is the
// topology's *interior*. A flow from s to d traverses s's uplink, the interior
// links on the s->d path, and d's downlink. Two interior models exist:
//
//  * MeshTopology — the paper's ModelNet setup (Sections 4.1-4.7): a fully
//    interconnected mesh where every ordered node pair owns a private core link
//    with independently chosen bandwidth, propagation delay and loss rate. The
//    interior path is always exactly that one core link, pairs never share
//    interior capacity, and memory is O(N^2).
//
//  * RoutedTopology — a sparse router graph (transit-stub / GT-ITM style, or an
//    explicit edge list). Overlay nodes attach to routers; the interior path is
//    the delay-shortest route between the attachment routers, so flows from
//    different pairs genuinely share links — the regime where max-min fair
//    emulation produces the paper's "correlated and cumulative" bandwidth
//    effects. Memory is O(N + routers + edges). Routes are read straight off
//    lazily computed shortest-path trees, one per source router actually
//    used: a TransitStub-built graph composes each route from its two stub
//    legs and a walk of the source transit router's tree; an explicit edge
//    list walks the source router's tree. No per-pair state is kept, so the
//    footprint scales with the source routers in use, not with N^2.
//
// Interior link ids are topology-defined dense integers (mesh: src*N+dst; routed:
// edge index). Propagation delay and loss are fixed once routes are first used;
// link *bandwidth* is the one dynamic quantity (see dynamics.h). On a routed
// topology a bandwidth change to a shared link affects every flow routed across
// it — ScalePathBandwidth/SetPathBandwidth below define how the mesh-era
// per-pair "core link" mutations map onto shared interior links.

#ifndef SRC_SIM_TOPOLOGY_H_
#define SRC_SIM_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/sim/time.h"

namespace bullet {

using NodeId = int32_t;

struct LinkParams {
  double bandwidth_bps = 0.0;  // capacity in bits/second
  SimTime delay = 0;           // one-way propagation delay
  double loss_rate = 0.0;      // independent packet loss probability
};

class MeshTopology;
class RoutedTopology;

// Abstract base: per-node access links plus a topology-specific interior.
class Topology {
 public:
  explicit Topology(int num_nodes);
  virtual ~Topology() = default;

  int num_nodes() const { return num_nodes_; }

  LinkParams& uplink(NodeId n) {
    BULLET_CHECK(static_cast<uint32_t>(n) < static_cast<uint32_t>(num_nodes_));
    return uplinks_[static_cast<size_t>(n)];
  }
  LinkParams& downlink(NodeId n) {
    BULLET_CHECK(static_cast<uint32_t>(n) < static_cast<uint32_t>(num_nodes_));
    return downlinks_[static_cast<size_t>(n)];
  }
  const LinkParams& uplink(NodeId n) const {
    BULLET_CHECK(static_cast<uint32_t>(n) < static_cast<uint32_t>(num_nodes_));
    return uplinks_[static_cast<size_t>(n)];
  }
  const LinkParams& downlink(NodeId n) const {
    BULLET_CHECK(static_cast<uint32_t>(n) < static_cast<uint32_t>(num_nodes_));
    return downlinks_[static_cast<size_t>(n)];
  }

  // A borrowed view of the interior link ids on the s->d path, in path order.
  // Valid only until the next InteriorPath call on this topology (implementations
  // back it with one reused scratch buffer); copy it to keep it.
  struct PathView {
    const int32_t* ids = nullptr;
    uint32_t size = 0;
    const int32_t* begin() const { return ids; }
    const int32_t* end() const { return ids + size; }
  };

  // The interior links between src's uplink and dst's downlink. May be empty
  // (routed topologies where both nodes attach to the same router). Requires
  // src != dst.
  virtual PathView InteriorPath(NodeId src, NodeId dst) const = 0;

  // Parameters of one interior link, addressed by the ids InteriorPath returns.
  virtual const LinkParams& interior_link(int32_t link_id) const = 0;
  LinkParams& interior_link(int32_t link_id) {
    return const_cast<LinkParams&>(static_cast<const Topology*>(this)->interior_link(link_id));
  }

  // Exclusive upper bound on interior link ids (mesh: N^2; routed: edge count).
  // Sizes the network's per-epoch id-mapping tables.
  virtual int64_t interior_id_limit() const = 0;

  // One-way path delay s->d and round-trip time s->d->s: access-link delays plus
  // the interior delays along InteriorPath.
  SimTime PathDelay(NodeId src, NodeId dst) const;
  SimTime Rtt(NodeId src, NodeId dst) const;
  // End-to-end loss probability on the s->d path: independent loss composed
  // across the interior links and both access links.
  double PathLoss(NodeId src, NodeId dst) const;

  // How dynamic-bandwidth drivers mutate the s->d path (see dynamics.h). On the
  // mesh these touch exactly the private core link, reproducing the paper's
  // per-pair semantics bit for bit; on a routed topology they apply to every
  // interior link of the route, so decreases aimed at different receivers
  // compound on shared links — the sparse-graph reading of the paper's
  // "correlated and cumulative decreases from a large set of sources".
  void ScalePathBandwidth(NodeId src, NodeId dst, double factor);
  void SetPathBandwidth(NodeId src, NodeId dst, double bps);

  // Downcast helper for mesh-specific call sites (per-pair core-link fixtures in
  // tests and the Fig. 12 cascade bench); nullptr on non-mesh topologies.
  virtual MeshTopology* AsMesh() { return nullptr; }
  // Downcast helper for routed-specific call sites (stub-domain-aware churn
  // models, shared-link probes); nullptr on non-routed topologies.
  virtual RoutedTopology* AsRouted() { return nullptr; }
  virtual const RoutedTopology* AsRouted() const { return nullptr; }

 protected:
  int num_nodes_;
  std::vector<LinkParams> uplinks_;
  std::vector<LinkParams> downlinks_;
};

// The paper's ModelNet mesh: every ordered pair owns a private core link.
class MeshTopology final : public Topology {
 public:
  // Dense core-matrix indices are src*N+dst in a 32-bit id space; one node more
  // and the ids would alias (46341^2 > INT32_MAX), silently folding distinct
  // core links together. The mesh refuses to build past this; larger overlays
  // belong on RoutedTopology, whose interior id space is the (sparse) edge list.
  static constexpr int kMaxNodes = 46340;

  explicit MeshTopology(int num_nodes);

  LinkParams& core(NodeId src, NodeId dst) {
    return core_[CoreIndex(src, dst)];
  }
  const LinkParams& core(NodeId src, NodeId dst) const {
    return core_[CoreIndex(src, dst)];
  }

  PathView InteriorPath(NodeId src, NodeId dst) const override;
  const LinkParams& interior_link(int32_t link_id) const override {
    BULLET_CHECK(link_id >= 0 && static_cast<int64_t>(link_id) < interior_id_limit());
    return core_[static_cast<size_t>(link_id)];
  }
  int64_t interior_id_limit() const override {
    return static_cast<int64_t>(num_nodes_) * num_nodes_;
  }
  MeshTopology* AsMesh() override { return this; }

  // --- Builders for the paper's experimental topologies ---

  struct MeshParams {
    int num_nodes = 100;
    double access_bps = 6e6;        // 6 Mbps access links (Section 4.1)
    double core_bps = 2e6;          // 2 Mbps nominal core links
    SimTime access_delay = MsToSim(1);
    SimTime core_delay_min = MsToSim(5);
    SimTime core_delay_max = MsToSim(200);
    double core_loss_min = 0.0;     // loss chosen uniformly per core link
    double core_loss_max = 0.03;    // 0-3% (Section 4.1)
  };
  // The Section 4.1 topology: full mesh, randomized core delays and losses.
  static MeshTopology FullMesh(const MeshParams& params, Rng& rng);

  // The Section 4.4 "constrained access" topology: ample core (10 Mbps / 1 ms,
  // lossless), 800 Kbps access links.
  static MeshTopology ConstrainedAccess(int num_nodes, Rng& rng);

  // The Section 4.5 topology: uniform links of the given bandwidth/latency between
  // all pairs (modelled as ample access and uniform core), optional random core loss.
  static MeshTopology Uniform(int num_nodes, double link_bps, SimTime link_delay,
                              double loss_min, double loss_max, Rng& rng);

  // A synthetic wide-area (PlanetLab stand-in) topology for Section 4.7: per-node
  // access bandwidth 1-20 Mbps, core RTTs 10-400 ms, light random loss.
  static MeshTopology WideArea(int num_nodes, Rng& rng);

 private:
  // Validates the node count before the core matrix is sized — the ctor's
  // member initializer must not attempt a 46341^2-element allocation first.
  static size_t CheckedCoreSize(int num_nodes);

  size_t CoreIndex(NodeId src, NodeId dst) const {
    BULLET_CHECK(static_cast<uint32_t>(src) < static_cast<uint32_t>(num_nodes_));
    BULLET_CHECK(static_cast<uint32_t>(dst) < static_cast<uint32_t>(num_nodes_));
    return static_cast<size_t>(src) * static_cast<size_t>(num_nodes_) +
           static_cast<size_t>(dst);
  }

  std::vector<LinkParams> core_;
  mutable int32_t path_scratch_ = -1;  // backs the single-link InteriorPath view
};

// Sparse router graph with overlay nodes attached to routers. Interior link ids
// are directed-edge indices in AddEdge order.
class RoutedTopology final : public Topology {
 public:
  // `num_routers` interior routers, ids [0, num_routers). Every overlay node
  // must be attached to a router (AttachNode) before routes are queried.
  RoutedTopology(int num_nodes, int num_routers);

  int num_routers() const { return num_routers_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }

  void AttachNode(NodeId node, int32_t router);
  int32_t attach(NodeId node) const {
    BULLET_CHECK(static_cast<uint32_t>(node) < static_cast<uint32_t>(num_nodes_));
    return attach_[static_cast<size_t>(node)];
  }

  // Adds one directed router-to-router edge; returns its interior link id.
  // Must not be called after the first route query (routes are pinned then).
  int32_t AddEdge(int32_t from_router, int32_t to_router, const LinkParams& params);
  // Two directed edges with identical parameters; returns the a->b id (the b->a
  // edge is the next id).
  int32_t AddDuplexEdge(int32_t a, int32_t b, const LinkParams& params);

  PathView InteriorPath(NodeId src, NodeId dst) const override;
  const LinkParams& interior_link(int32_t link_id) const override {
    BULLET_CHECK(static_cast<uint32_t>(link_id) < edges_.size());
    return edges_[static_cast<size_t>(link_id)].params;
  }
  int64_t interior_id_limit() const override { return num_edges(); }
  RoutedTopology* AsRouted() override { return this; }
  const RoutedTopology* AsRouted() const override { return this; }

  // Endpoints of an interior edge (for tests and diagnostics).
  int32_t edge_from(int32_t link_id) const { return edges_[static_cast<size_t>(link_id)].from; }
  int32_t edge_to(int32_t link_id) const { return edges_[static_cast<size_t>(link_id)].to; }

  // Bytes held by the permanent structures (access links, attach map, edges) —
  // what a scenario pays to *build* the topology. Routing state (the lazily
  // built adjacency CSR, the shortest-path trees and the route scratch) is
  // excluded: it grows once per source router whose tree a route walks, and
  // route_cache_bytes() reports it separately.
  size_t MemoryFootprintBytes() const;
  size_t route_cache_bytes() const;

  // --- Builders ---

  // GT-ITM-style transit-stub graph. Transit domains are rings of transit
  // routers, all domain pairs interconnected; each transit router hosts stub
  // domains (stars of stub routers) whose gateway link up to the transit router
  // is the shared bottleneck tier every node in the stub competes for. Overlay
  // nodes are spread across stub routers (rng-shuffled round robin).
  struct TransitStubParams {
    int num_nodes = 100;
    int transit_domains = 2;
    int routers_per_transit = 4;
    int stub_domains_per_transit_router = 3;
    int routers_per_stub = 4;
    double transit_bps = 155e6;      // intra- and inter-transit-domain links
    double transit_stub_bps = 45e6;  // stub gateway uplinks (shared bottleneck tier)
    double stub_bps = 100e6;         // intra-stub star links
    double access_bps = 6e6;
    SimTime access_delay = MsToSim(1);
    SimTime transit_delay_min = MsToSim(5);
    SimTime transit_delay_max = MsToSim(40);
    SimTime transit_stub_delay = MsToSim(2);
    SimTime stub_delay = MsToSim(1);
    double transit_loss_min = 0.0;  // loss drawn per transit-tier link
    double transit_loss_max = 0.0;
  };
  static RoutedTopology TransitStub(const TransitStubParams& params, Rng& rng);

  // Structural record of a TransitStub build, kept so topology-aware drivers
  // (correlated-failure churn, shared-link utilization probes) can map routers
  // and overlay nodes back onto the transit/stub hierarchy. Stub domains are
  // numbered in creation order: per transit router, then per stub slot.
  struct TransitStubInfo {
    int num_transit_routers = 0;
    int num_stub_domains = 0;
    int routers_per_stub = 0;
    int stub_domains_per_transit_router = 0;
    // Per stub domain: the interior link id of the transit->gateway direction
    // of its shared gateway uplink (the reverse direction is the next id).
    std::vector<int32_t> gateway_uplink_edge;
    // Per router: the interior link id of the gateway->member direction of its
    // intra-stub star link (member->gateway is the next id); -1 for transit
    // routers and stub gateways, which have no star link of their own. Recorded
    // so route composition can build stub legs without Dijkstra.
    std::vector<int32_t> member_uplink_edge;

    // The stub domain owning `router`; -1 for transit routers.
    int stub_domain_of_router(int32_t router) const {
      return router < num_transit_routers
                 ? -1
                 : static_cast<int>((router - num_transit_routers) / routers_per_stub);
    }
    int32_t gateway_router(int stub_domain) const {
      return num_transit_routers + stub_domain * routers_per_stub;
    }
    int32_t transit_router(int stub_domain) const {
      return stub_domain / stub_domains_per_transit_router;
    }
  };
  // Non-null only on topologies built by TransitStub.
  const TransitStubInfo* transit_stub_info() const {
    return transit_stub_info_.num_stub_domains > 0 ? &transit_stub_info_ : nullptr;
  }

  // --- Routes ---
  // The shortest-path trees are the one route store. A query walks one tree
  // into the route scratch that backs the returned PathView (valid until the
  // next InteriorPath call, per the PathView contract); nothing is kept per
  // pair. An explicit router graph (AddEdge/AttachNode) walks the source
  // router's tree. A TransitStub-built graph composes (src stub leg, walk of
  // the source transit router's tree to the destination transit router, dst
  // stub leg), so only transit-router trees are ever computed. The composed
  // list is bitwise-equal to the walk of the source router's own tree: a stub
  // star leaves through its gateway's single transit uplink, so the Dijkstra
  // tree beyond the transit router is shift-invariant in the source (same
  // (dist, router) heap order, same strict-improvement relaxations);
  // scale_subsystem_test pins this on generated shapes.
  //
  // Thread-safety: route state (adjacency CSR, per-source shortest-path trees,
  // route scratch) fills lazily under const queries, so a topology must not be
  // queried from two threads at once. Each simulation run owns its topology
  // (sweep --jobs isolates whole runs), so this never arises in the simulator
  // itself.
  //
  // PrewarmRoutes() computes up front every tree later queries can walk: on a
  // TransitStub graph, the transit-router tree serving each attached node's
  // stub domain; on an explicit graph, the tree of every router an overlay
  // node attaches to. Together with the scratch, which the first route query
  // (or PrewarmRoutes) reserves for the longest possible route, that leaves
  // later queries allocation-free, so route_cache_bytes() stays flat.
  void PrewarmRoutes() const;

 private:
  struct Edge {
    int32_t from = -1;
    int32_t to = -1;
    LinkParams params;
  };

  // Builds the CSR adjacency, sizes routes_ to the routers that can root a
  // tree, and reserves the route scratch for the longest possible route.
  void BuildAdjacency() const;
  // routes_[root], checked: on a transit-stub graph only transit routers root
  // trees.
  std::vector<int32_t>& TreeOf(int32_t root) const;
  // Dijkstra (delay-weighted, deterministic (dist, router) tie-break) from
  // `src_router`, filling routes_[src_router]. Requires the adjacency.
  void ComputeRoutesFrom(int32_t src_router) const;
  // Appends the root -> dest path of routes_[root]'s tree to the route
  // scratch, computing the tree on first use.
  void AppendTreeWalk(int32_t root, int32_t dest) const;
  // TransitStub route assembly into the route scratch: stub legs from the
  // recorded build edges, the transit part from a transit-router tree walk.
  void ComposeTransitStubRoute(int32_t r0, int32_t r1) const;

  int num_routers_;
  std::vector<int32_t> attach_;  // per overlay node; -1 until AttachNode
  std::vector<Edge> edges_;
  TransitStubInfo transit_stub_info_;  // empty unless TransitStub-built

  // Lazy routing state (filled under const queries): CSR adjacency over
  // routers; per tree root (every router of an explicit graph, the T transit
  // routers of a transit-stub graph), the edge arriving at each router in its
  // shortest-path tree (-1 at the root and at unreachable routers; empty
  // until computed); and the scratch that backs every returned PathView.
  mutable bool adj_built_ = false;
  mutable std::vector<uint32_t> adj_off_;
  mutable std::vector<int32_t> adj_edge_;
  mutable std::vector<std::vector<int32_t>> routes_;
  mutable std::vector<int32_t> route_scratch_;
};

}  // namespace bullet

#endif  // SRC_SIM_TOPOLOGY_H_
