// The emulated network: reliable, ordered, byte-accounted connections between overlay
// nodes, with bandwidth shared max-min across all concurrently active flows and TCP
// behaviour approximated per flow (see tcp_model.h).
//
// Protocols interact with the network exclusively through:
//   Connect / Close  — connection lifecycle (establishment costs 1.5 RTT, like TCP
//                      handshake plus first application write),
//   Send             — enqueue a typed message on a connection,
//   NetHandler       — callbacks for connection up/down and message delivery.
//
// Every `quantum` of simulated time the network recomputes flow rates (a flow is a
// connection direction with queued bytes) and advances transmissions. Completed
// messages are delivered after the path's propagation delay, plus a retransmission
// penalty drawn from the path loss rate; deliveries on one direction are in order.
//
// Topology generality (PR 4). A flow crosses its sender's uplink, its receiver's
// downlink, and the interior links of the topology's s->d path — one private
// core link on the legacy mesh, a shared multi-hop route on RoutedTopology.
// Interior routes are snapshotted per direction at Connect() (propagation delay
// and loss are static; only link bandwidth is dynamic), the handshake and the
// remote close notice read their delays from that snapshot, and interior link ids
// are mapped to dense allocator ids per allocation epoch in first-use order —
// on the mesh this reproduces the historical dense core-link-id scheme exactly,
// so mesh results are bit-identical to the pre-routed implementation.
//
// Hot-path architecture (PR 3). The tick is event-driven in its *work*, not its
// schedule: a tick event still fires every quantum (keeping the event-sequence
// numbering — and therefore same-time tie-breaking — identical to the original
// fixed-quantum loop), but the expensive stages only run when something changed:
//
//   * compaction of closed connections (which also frees their state) runs
//     only on quanta that saw a Close();
//   * the flow set is rebuilt and re-water-filled only when dirty — a direction
//     became busy or idle, a connection closed, a flow's TCP cap is still ramping,
//     or a capacity changed on a link the last allocation used (a link no flow
//     crosses cannot influence the rates; the next flow to cross it dirties the
//     flow set anyway, and the rebuild reads every capacity fresh);
//   * a rebuild costs what the busy flows cost, not what the network holds: a
//     busy index (one bit per open_conns_ position, moved with its connection
//     by the compaction) lists the connections with a busy direction in scan
//     order, and only the access links those flows cross are registered —
//     uplinks, then downlinks, each in node order, so the links keep the id
//     order they would have with all 2n access links registered, and the
//     allocator breaks every tie the same way. Both
//     indexes change only where a direction goes busy or idle;
//   * on clean quanta the cached rates are reused — by determinism they are
//     exactly what a recompute would produce — and only transmission advancement
//     runs;
//   * a fully idle network (no queued bytes anywhere) ticks in O(1).
//
// The reference is a full recompute: every established busy direction in
// open_conns_ order, water-filled anew by the stateless AllocateMaxMinPaths
// (see AssembleFullFlowSet). Checked builds (BULLET_SANITIZE=ON defines
// BULLET_VERIFY_CACHED_RATES) hold every quantum that has flows to it: the
// cached flow list must equal the reference's and every cached rate must be
// bitwise equal, or the run aborts. Equal flows and rates at every quantum
// make the whole run's timeline the full recompute's.
//
// Per-flow TCP caps are cached once the slow-start ramp reaches its steady ceiling
// (tcp_model.h), message queues are ring buffers that recycle their storage, and
// delivery events capture their message directly in the event-queue closure, so
// steady-state message handling performs no per-message allocation.
//
// Thread-safety: none. A Network — with its topology, event queue, allocator
// and the protocols attached to it — belongs to one simulation run and is
// driven only from the thread that calls Run(). The one source of parallelism
// is the sweep engine's --jobs pool (src/harness/sweep.h), which isolates
// whole runs: every worker builds its own Network, and the run counters and
// phase profiler it publishes to are installed thread-locally per run, so no
// simulator state is ever shared between threads.

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/bandwidth_allocator.h"
#include "src/sim/event_queue.h"
#include "src/sim/scale/stable_flat_map.h"
#include "src/sim/tcp_model.h"
#include "src/sim/time.h"
#include "src/sim/topology.h"

namespace bullet {

using ConnId = int64_t;

// Base class for all protocol messages. `wire_bytes` must include the protocol's own
// header estimate; the network charges exactly this many bytes of link bandwidth.
struct Message {
  virtual ~Message() = default;
  int type = 0;
  int64_t wire_bytes = 0;
};

class NetHandler {
 public:
  virtual ~NetHandler() = default;
  // `initiator` is true at the node that called Connect().
  virtual void OnConnUp(ConnId /*conn*/, NodeId /*peer*/, bool /*initiator*/) {}
  virtual void OnConnDown(ConnId /*conn*/, NodeId /*peer*/) {}
  virtual void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) = 0;
};

// The network knobs a run can vary: the allocation quantum. The harness embeds
// one of these in WorkloadParams and ScenarioConfig and hands it through
// unchanged. TCP model parameters are the constants in tcp_model.h, and lossy
// paths always add the retransmission delivery latency (see EnqueueDelivery).
struct NetworkConfig {
  SimTime quantum = MsToSim(10);
};

class Network {
 public:
  Network(std::unique_ptr<Topology> topology, NetworkConfig config, uint64_t seed);
  // Convenience: wrap a concrete topology value (MeshTopology, RoutedTopology).
  template <typename TopologyType,
            typename = std::enable_if_t<std::is_base_of_v<Topology, std::decay_t<TopologyType>>>>
  Network(TopologyType topology, NetworkConfig config, uint64_t seed)
      : Network(std::make_unique<std::decay_t<TopologyType>>(std::move(topology)), config, seed) {
  }

  EventQueue& queue() { return queue_; }
  SimTime now() const { return queue_.now(); }
  Topology& topology() { return *topology_; }
  Rng& rng() { return rng_; }
  int num_nodes() const { return topology_->num_nodes(); }

  void SetHandler(NodeId node, NetHandler* handler);
  // True once SetHandler installed a protocol for the node — i.e. the node has
  // joined its session. Messages delivered before that are silently dropped,
  // so membership-aware overlays (SplitStream's static stripe forest) defer
  // handshakes to not-yet-joined peers instead of losing them.
  bool NodeJoined(NodeId node) const { return handlers_[static_cast<size_t>(node)] != nullptr; }

  // Opens a connection from `from` to `to`. Both ends receive OnConnUp after
  // establishment. Messages may be sent immediately; they queue until established.
  ConnId Connect(NodeId from, NodeId to);

  // Closes the connection. The remote end receives OnConnDown after one path delay;
  // all queued and in-flight messages are dropped. Calls on a closed id are no-ops
  // (Close) or answer as for a closed connection (everything else), also once the
  // next quantum boundary has freed its state.
  void Close(ConnId conn);
  bool IsOpen(ConnId conn) const;

  // Enqueues a message from `from` on the connection. Returns false (and drops) if
  // the connection is closed or `from` is not an endpoint.
  bool Send(ConnId conn, NodeId from, std::unique_ptr<Message> msg);

  // Fails the node: every connection touching it closes (peers learn through
  // OnConnDown after the usual delay) and future Connect() calls involving it are
  // refused. Used by churn experiments; a failed node's protocol object survives but
  // is cut off. Idempotent.
  void FailNode(NodeId node);
  bool IsNodeFailed(NodeId node) const { return failed_[static_cast<size_t>(node)] != 0; }

  // Introspection used by protocol flow control (Bullet' measures its send queue to
  // report `in_front` and `wasted`, Section 3.3.3).
  int64_t QueuedBytes(ConnId conn, NodeId from) const;
  // Time since this direction last transmitted its final queued byte; 0 if busy.
  // A closed connection reads a stale idle span until the quantum boundary after
  // its Close() frees it, and 0 from then on. The one caller, BulletPrime's
  // ServeBlock, probes only the connection a request was just delivered on,
  // which is open.
  SimTime IdleTime(ConnId conn, NodeId from) const;
  // Most recent allocated rate for this direction, bits/second.
  double CurrentRateBps(ConnId conn, NodeId from) const;

  // Per-node totals (all message kinds), counted at transmission completion.
  int64_t node_bytes_sent(NodeId n) const { return tx_bytes_[static_cast<size_t>(n)]; }
  int64_t node_bytes_received(NodeId n) const { return rx_bytes_[static_cast<size_t>(n)]; }

  // Entries in the open-connection list. Closed connections are compacted out on
  // the next quantum boundary after their Close(), so this may transiently exceed
  // the number of live connections by the closes of the current quantum (tests
  // use it to pin down that bound; see network_test.cc).
  size_t open_conn_entries() const { return open_conns_.size(); }
  // Directions currently holding queued bytes on established connections.
  size_t active_directions() const { return active_dirs_; }
  // Peak number of flows the allocator saw sharing one interior link in any
  // allocation epoch so far. On the mesh an interior link is private to an
  // ordered pair (its two-or-more flows are parallel connections of that pair);
  // on routed topologies this is the shared-bottleneck width — the
  // fig16_shared_bottleneck scenario asserts it exceeds 1.
  int32_t max_interior_link_flows() const { return max_interior_link_flows_; }

  // Live probe over one interior link (a topology link id, e.g. a transit-stub
  // gateway uplink): the total bandwidth the last allocation granted the busy
  // established flows routed across it. Rates reflect the most recent
  // allocation epoch (at most one quantum stale), which is exactly the sampling
  // granularity the emulator allocates at anyway.
  double InteriorLinkAllocatedBps(int32_t link_id) const;

  // Deterministic run counters (always on, seed-reproducible; the perf gate
  // normalizes them by wall time — see docs/PERFORMANCE.md). Run() also adds
  // the same deltas to the thread-locally installed RunCounters, if any, so a
  // harness can total them across the several networks one scenario may build.
  uint64_t events_executed() const { return events_executed_; }   // queue callbacks fired
  uint64_t allocator_epochs() const { return allocator_epochs_; } // water-fill recomputes
  int64_t total_bytes_sent() const;  // wire bytes transmitted, all nodes

  // --- mega-swarm memory telemetry (deterministic byte counters; see
  // docs/ARCHITECTURE.md "Mega-swarm memory model"). The harness surfaces
  // these per run and the megaswarm sweep gates them against a committed
  // ceiling baseline (bytes <= baseline; bench_check bullet-ceilings-v1).
  // Routing state held by the topology (0 on mesh topologies).
  size_t route_cache_bytes() const;
  // Pooled per-connection interior-route slices (capacity, which packing
  // keeps, so this is the pool's peak).
  size_t path_pool_bytes() const;
  // Protocol node state registered via arena_counter(): the run's peak —
  // every live StableFlatMap entry plus each map's index capacity (the name
  // predates per-entry storage).
  int64_t arena_peak_bytes() const { return arena_counter_.peak_bytes(); }
  // The counter protocol node-state containers (StableFlatMap) charge.
  ArenaCounter* arena_counter() { return &arena_counter_; }

  // Runs the simulation until `until` or Stop().
  void Run(SimTime until);
  // Stops after the current event.
  void Stop() { queue_.Stop(); }

 private:
  struct QueuedMsg {
    std::unique_ptr<Message> msg;
    double remaining_bytes = 0.0;
  };

  // FIFO of queued messages backed by a recycled power-of-two ring, replacing a
  // per-direction std::deque: no node allocations per message, and the buffer is
  // released when the connection closes.
  class MsgRing {
   public:
    bool empty() const { return size_ == 0; }
    QueuedMsg& front() { return buf_[head_]; }
    void push_back(QueuedMsg qm);
    void pop_front();
    void clear_and_release();

   private:
    std::vector<QueuedMsg> buf_;  // power-of-two capacity, index masked
    size_t head_ = 0;
    size_t size_ = 0;
  };

  struct Direction {
    MsgRing queue;
    int64_t queued_bytes = 0;
    double rate_bps = 0.0;
    TcpFlowState tcp;
    SimTime delivery_floor = 0;  // enforces in-order delivery
    SimTime idle_since = 0;      // valid when queue is empty

    // TCP-cap cache for the incremental tick. Once `cap_steady`, `cap_cache` is
    // the exact value TcpRateCapBps would return for the rest of the busy
    // period, so the rebuild skips the transcendental-heavy recomputation.
    double cap_cache = 0.0;
    bool cap_steady = false;
  };

  // Per-direction path parameters snapshotted at Connect(). Propagation delay,
  // loss and the interior route are static during a run (only link *bandwidth*
  // is dynamic — see dynamics.h), so these are the exact values the per-message
  // topology lookups would produce, without re-walking the topology per message
  // or per allocation epoch.
  //
  // The interior route lives as an (offset, length) slice of path_pool_ rather
  // than a per-direction vector: the allocator rebuild walks every busy
  // direction's route each epoch, and one contiguous pool turns those walks
  // into sequential reads instead of a heap-pointer chase per direction (and
  // drops two vector allocations per Connect). Connect appends; a freed
  // connection's slice is never read again, and once such slices hold more
  // than half of the pool, CompactPathPool packs the open ones to its front,
  // so the pool stays bounded by the open connections' routes.
  struct PathCache {
    SimTime path_delay = 0;
    SimTime rtt = 0;
    double loss = 0.0;
    uint32_t interior_off = 0;  // slice of path_pool_: interior link ids, path order
    uint32_t interior_len = 0;
  };

  struct Conn {
    ConnId id = -1;
    NodeId node[2] = {-1, -1};
    Direction dir[2];   // dir[i] carries node[i] -> node[1-i]
    PathCache path[2];  // path[i] describes node[i] -> node[1-i]
    uint32_t open_pos = 0;  // index in open_conns_ while listed there
    bool established = false;
    bool closed = false;
  };

  Conn* GetConn(ConnId id);
  const Conn* GetConn(ConnId id) const;
  // Returns 0 or 1: which endpoint `node` is; -1 if neither.
  static int EndpointIndex(const Conn& c, NodeId node);

  // First interior link id of the path's pooled route slice.
  const int32_t* PathInteriorBegin(const PathCache& path) const {
    return path_pool_.data() + path.interior_off;
  }
  const int32_t* PathInteriorEnd(const PathCache& path) const {
    return path_pool_.data() + path.interior_off + path.interior_len;
  }

  // The reference flow set: every established direction with queued bytes in
  // open_conns_ order, link ids uplink(i) = i, downlink(i) = n + i and interior
  // links from 2n in first-use order, fresh TCP caps and capacities.
  // Independent of the busy index and the touched-link registration, so the
  // checked-build verifier can hold those to it.
  struct FullFlowSet {
    std::vector<PathFlowSpec> flows;
    std::vector<std::pair<ConnId, int>> dirs;  // (conn, direction) per flow
    std::vector<double> capacities;
  };
  FullFlowSet AssembleFullFlowSet() const;

  void ScheduleNextTick();
  void Tick();
  void CompactOpenConns();
  void CompactPathPool();
  bool CapacitiesUnchanged() const;
  void RebuildAndAllocate();
  void AdvanceTransmissions(double dt_sec);
  void AdvanceDirection(Conn& c, int dir_idx, double rate_bps, double dt_sec);
  // Checked builds call this every quantum that has flows (see the file comment).
  void VerifyCachedRates() const;

  // Capacity of the access link with legacy id `key`: uplink(key) for key < n,
  // downlink(key - n) above.
  double AccessLinkCapacity(int32_t key) const;
  int32_t InteriorLinkIdForEpoch(int32_t interior_id);
  void ActivateDirection(Conn& c, int dir_idx);
  // Busy -> idle transition of a direction whose queue just drained.
  void DeactivateDirection(Conn& c, int dir_idx);
  void SetConnBusyMask(Conn& c, uint8_t mask);
  void CountAccessFlow(size_t key, int32_t delta);
  void DeliverMessage(ConnId conn_id, int receiver_idx, std::unique_ptr<Message> msg);
  void EnqueueDelivery(ConnId conn_id, Conn& c, int sender_idx, std::unique_ptr<Message> msg);

  std::unique_ptr<Topology> topology_;
  NetworkConfig config_;
  Rng rng_;
  EventQueue queue_;

  std::vector<NetHandler*> handlers_;
  // Indexed by ConnId; ids are never reused. A closed connection's Conn is freed
  // (the slot left null) when CompactOpenConns drops it from open_conns_.
  std::vector<std::unique_ptr<Conn>> conns_;
  // Pooled PathCache interior routes (see PathCache), and how many of its
  // entries belong to connections still listed in open_conns_.
  std::vector<int32_t> path_pool_;
  size_t path_pool_open_ = 0;
  std::vector<ConnId> open_conns_;            // compacted on quantum boundaries
  // Bit i set when conn->dir[i] is established with queued bytes.
  std::vector<uint8_t> conn_busy_mask_;  // indexed by ConnId
  // The busy index: bit p set while open_conns_[p] has a nonzero busy mask.
  // CompactOpenConns moves a bit with its connection, so scanning the set bits
  // in ascending order visits the busy connections in open_conns_ order
  // without touching the idle ones (most connections are idle in any quantum).
  std::vector<uint64_t> busy_pos_;

  std::vector<int64_t> tx_bytes_;
  std::vector<int64_t> rx_bytes_;
  std::vector<char> failed_;

  // --- incremental tick state ---
  IncrementalMaxMin alloc_;
  // Live/peak bytes of protocol node state (see arena_counter()).
  ArenaCounter arena_counter_;
  // (conn, direction) per allocated flow, in allocation order; parallel to
  // alloc_.rates(). Valid until the next rebuild. Conn objects are heap-pinned
  // (conns_ holds unique_ptrs), and a Conn is freed only by the compaction
  // after its Close(), which leaves alloc_dirty_ set: the list is rebuilt
  // before AdvanceTransmissions reads it again.
  struct CachedFlow {
    Conn* conn;
    int dir_idx;
  };
  std::vector<CachedFlow> cached_flows_;
  // Capacities the last allocation was computed from, for change detection:
  // every link a flow used, as (id, capacity) — access links by legacy id
  // (uplink(i) = i, downlink(i) = n + i), interior links by topology id.
  struct LinkCap {
    int32_t id;
    double cap;
  };
  std::vector<LinkCap> access_caps_;
  std::vector<LinkCap> interior_caps_;
  // Busy flows per access link, by legacy id, kept by SetConnBusyMask; a bit
  // per legacy id set while that count is positive; and the dense allocator
  // id each touched link was registered under this epoch. Ascending legacy ids
  // put uplinks before downlinks, each in node order.
  std::vector<int32_t> access_flows_;
  std::vector<uint64_t> access_touched_;
  std::vector<int32_t> access_link_id_;
  // Per-topology-interior-link dense allocator id for the current allocation
  // epoch (stamped). On the mesh the topology id is src*N+dst, reproducing the
  // historical per-ordered-pair core-id table.
  std::vector<uint32_t> interior_epoch_;
  std::vector<int32_t> interior_link_id_;
  uint32_t epoch_counter_ = 0;
  // Per-flow allocator link-id assembly buffer (uplink, downlink, interior...).
  std::vector<int32_t> flow_link_scratch_;

  size_t active_dirs_ = 0;    // established directions with queued bytes
  size_t pending_close_ = 0;  // closes since the last compaction pass
  bool alloc_dirty_ = true;   // cached rates/flows invalid; rebuild on next tick
  size_t ramping_flows_ = 0;  // flows whose TCP cap was not yet steady at rebuild
  int32_t max_interior_link_flows_ = 0;

  // Always-on deterministic counters (see the public accessors). Run() pushes
  // deltas into the installed RunCounters; published_* track what was pushed.
  uint64_t events_executed_ = 0;
  uint64_t allocator_epochs_ = 0;
  uint64_t rc_published_events_ = 0;
  uint64_t published_epochs_ = 0;
  int64_t published_bytes_ = 0;

  SimTime last_tick_ = 0;
  bool tick_scheduled_ = false;
};

}  // namespace bullet

#endif  // SRC_SIM_NETWORK_H_
