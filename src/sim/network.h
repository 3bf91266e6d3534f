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
// and loss are static; only link bandwidth is dynamic), and interior link ids
// are mapped to dense allocator ids per allocation epoch in first-use order —
// on the mesh this reproduces the historical dense core-link-id scheme exactly,
// so mesh results are bit-identical to the pre-routed implementation.
//
// Hot-path architecture (PR 3). The tick is event-driven in its *work*, not its
// schedule: a tick event still fires every quantum (keeping the event-sequence
// numbering — and therefore same-time tie-breaking — identical to the original
// fixed-quantum loop), but the expensive stages only run when something changed:
//
//   * compaction of closed connections runs only on quanta that saw a Close();
//   * the flow set is rebuilt and re-water-filled only when dirty — a direction
//     became busy or idle, a connection closed, a flow's TCP cap is still ramping,
//     or a link capacity changed (detected by comparing the capacities the last
//     allocation used against the topology);
//   * on clean quanta the cached rates are reused — by determinism they are
//     exactly what a recompute would produce — and only transmission advancement
//     runs;
//   * a fully idle network (no queued bytes anywhere) ticks in O(1).
//
// Per-flow TCP caps are cached once the slow-start ramp reaches its steady ceiling
// (tcp_model.h), message queues are ring buffers that recycle their storage, and
// delivery events capture their message directly in the event-queue closure, so
// steady-state message handling performs no per-message allocation.
//
// NetworkConfig::allocator_mode selects the legacy full-recompute-every-quantum
// tick (the pre-PR behaviour, kept as a reference and for A/B benchmarking).
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
#include "src/sim/scale/arena.h"
#include "src/sim/scale/flow_aggregation.h"
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

struct NetworkConfig {
  SimTime quantum = MsToSim(10);
  TcpModelParams tcp;
  // Model the extra delivery latency of messages that suffer packet loss (TCP
  // retransmission + head-of-line blocking). Throughput loss is modelled separately
  // via the Mathis cap; this term affects message latency, which is what makes
  // availability information stale on lossy paths (Section 4.3).
  bool loss_latency = true;

  enum class AllocatorMode {
    kIncremental,    // dirty-tracked allocation with cached rates (default)
    kFullRecompute,  // pre-PR behaviour: rebuild + water-fill every quantum
  };
  AllocatorMode allocator_mode = AllocatorMode::kIncremental;

  // Mega-swarm mode: water-fill *bundles* of flows sharing an identical
  // interior route instead of individual flows (src/sim/scale/
  // flow_aggregation.h). Epoch cost scales with bundles (bounded by ordered
  // router pairs on a transit-stub graph) rather than live flows. NOT
  // bit-identical to the exact allocator — access links are treated as
  // locally fair (capacity/k member caps) and intra-bundle competition at the
  // interior bottleneck is replaced by the bounded split — but conservation
  // and link feasibility hold exactly (allocator_invariants tests pin the
  // deviation). Default off: the exact path is untouched and byte-identical.
  // Requires kIncremental mode.
  bool aggregate_flows = false;
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
  // all queued and in-flight messages are dropped.
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
  size_t QueuedMessages(ConnId conn, NodeId from) const;
  int64_t QueuedBytes(ConnId conn, NodeId from) const;
  // Time since this direction last transmitted its final queued byte; 0 if busy.
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

  // Live probes over one interior link (a topology link id, e.g. a transit-stub
  // gateway uplink): the number of busy established flows currently routed
  // across it, and the total bandwidth the last allocation granted them. Rates
  // reflect the most recent allocation epoch (at most one quantum stale), which
  // is exactly the sampling granularity the emulator allocates at anyway.
  int CountFlowsOnInteriorLink(int32_t link_id) const;
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
  // Pooled per-connection interior-route slices.
  size_t path_pool_bytes() const;
  // Protocol node-state arenas registered via arena_counter(): live bytes now
  // and the run's peak.
  int64_t arena_current_bytes() const { return arena_counter_.current_bytes(); }
  int64_t arena_peak_bytes() const { return arena_counter_.peak_bytes(); }
  // The counter protocol node-state containers (StableFlatMap) register with.
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
    size_t size() const { return size_; }
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
  // drops two vector allocations per Connect). The pool only grows — conns_
  // never erases — so slices stay valid for the connection's lifetime.
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

  void ScheduleNextTick();
  void Tick();
  void TickFullRecompute(double dt_sec);
  void CompactOpenConns();
  bool CapacitiesUnchanged() const;
  void RebuildAndAllocate(bool base_caps_unchanged);
  void AdvanceTransmissions(double dt_sec);

  int32_t InteriorLinkIdForEpoch(int32_t interior_id);
  void ActivateDirection(Conn& c, int dir_idx);
  void DeliverMessage(ConnId conn_id, int receiver_idx, std::unique_ptr<Message> msg);
  void EnqueueDelivery(ConnId conn_id, Conn& c, int sender_idx, std::unique_ptr<Message> msg);

  std::unique_ptr<Topology> topology_;
  NetworkConfig config_;
  Rng rng_;
  EventQueue queue_;

  std::vector<NetHandler*> handlers_;
  std::vector<std::unique_ptr<Conn>> conns_;  // indexed by ConnId, never reused
  // Pooled PathCache interior routes (see PathCache); append-only.
  std::vector<int32_t> path_pool_;
  std::vector<ConnId> open_conns_;            // compacted on quantum boundaries
  // Bit i set when conn->dir[i] is established with queued bytes. Lets the
  // rebuild scan skip idle connections with one flat byte load instead of a
  // pointer chase (most connections are idle in any given quantum).
  std::vector<uint8_t> conn_busy_mask_;  // indexed by ConnId

  std::vector<int64_t> tx_bytes_;
  std::vector<int64_t> rx_bytes_;
  std::vector<char> failed_;

  // --- incremental tick state ---
  IncrementalMaxMin alloc_;
  // Aggregated water-fill engine (config_.aggregate_flows) and the rate
  // vector AdvanceTransmissions reads: alloc_.rates() on the exact path,
  // aggregator_.rates() on the aggregated one. The indirection is set by every
  // rebuild and never dangles (both vectors live as long as the network).
  FlowAggregator aggregator_;
  const std::vector<double>* current_rates_ = nullptr;
  // Live/peak bytes of protocol node-state arenas (see arena_counter()).
  ArenaCounter arena_counter_;
  // (conn, direction) per allocated flow, in allocation order; parallel to
  // alloc_.rates(). Valid until the next rebuild. Conn objects are heap-pinned
  // (conns_ holds unique_ptrs and never erases), so raw pointers stay valid.
  struct CachedFlow {
    Conn* conn;
    int dir_idx;
  };
  std::vector<CachedFlow> cached_flows_;
  // Capacities the last allocation was computed from, for change detection:
  // all access links (uplinks then downlinks, legacy id order) ...
  std::vector<double> base_caps_;
  // ... plus every interior link a flow used, as (topology id, capacity).
  struct InteriorCap {
    int32_t id;
    double cap;
  };
  std::vector<InteriorCap> interior_caps_;
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
