// RanSub (Kostic et al., USITS'03): epoch-based distribution of changing, uniformly
// random subsets of per-node state over a control tree.
//
// Implementation notes. The original protocol alternates strict collect and
// distribute phases. We implement a continuously-pipelined variant that avoids
// cross-epoch synchronization: every node keeps, per child, the most recent
// *collect pool* — a bounded weighted sample of summaries from that child's subtree.
// When a distribute message passes through a node it (a) hands the protocol its
// random subset, (b) forwards freshly re-randomized subsets to each child, and (c)
// sends its own collect pool (merged from self + child pools) up the tree. Child
// pools are therefore one epoch stale, which only delays summary freshness by one
// epoch — membership information is unaffected. Weighted reservoir merging keeps the
// distributed subsets near-uniform over all nodes; tests/overlay/ransub_test.cc
// checks uniformity with a chi-square bound.

#ifndef SRC_OVERLAY_RANSUB_H_
#define SRC_OVERLAY_RANSUB_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/overlay/control_tree.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"

namespace bullet {

// One node's advertised state. Carried in collect pools and distribute subsets.
struct PeerSummary {
  NodeId node = -1;
  uint32_t block_count = 0;  // distinct blocks held
  uint64_t sketch_bits = 0;  // AvailabilitySketch of held blocks
  float incoming_mbps = 0;   // advertised inbound rate (informational)

  static constexpr size_t kWireBytes = 24;
};

struct RanSubDistributeMsg : Message {
  static constexpr int kType = 9001;
  int epoch = 0;
  std::vector<PeerSummary> subset;
};

struct RanSubCollectMsg : Message {
  static constexpr int kType = 9002;
  int epoch = 0;
  // Bounded weighted sample of the sender's subtree; weight[i] counts how many
  // subtree nodes entry i represents (weights sum to the subtree size).
  std::vector<PeerSummary> pool;
  std::vector<float> weights;
};

class RanSubAgent {
 public:
  // Summaries in each node's distributed random subset.
  static constexpr size_t kSubsetSize = 10;
  // Bound on the summaries a collect pool carries up the tree.
  static constexpr size_t kPoolSize = 32;
  // The paper's epoch period (Section 3.2.2).
  static constexpr SimTime kEpochPeriod = SecToSim(5.0);

  // `summarize` produces this node's current summary. `on_distribute` fires once per
  // epoch with the node's random subset. `send_to_peer` must route a message to the
  // given tree neighbor (parent or child).
  RanSubAgent(const ControlTree* tree, NodeId self, Rng rng,
              std::function<PeerSummary()> summarize,
              std::function<void(const std::vector<PeerSummary>&)> on_distribute,
              std::function<void(NodeId, std::unique_ptr<Message>)> send_to_peer,
              EventQueue* queue);

  // Roots start the epoch timer; non-roots are driven by incoming distributes.
  void Start();

  // Returns true if the message type belongs to RanSub and was consumed.
  bool HandleMessage(NodeId from, Message& msg);

 private:
  void RootEpoch();
  void OnDistribute(const RanSubDistributeMsg& msg);
  void OnCollect(NodeId from, const RanSubCollectMsg& msg);
  // Weighted sample (without replacement) of k summaries from the given pools.
  std::vector<PeerSummary> SampleFrom(const std::vector<const RanSubCollectMsg*>& pools,
                                      const std::vector<PeerSummary>& extra,
                                      const std::vector<float>& extra_weights, size_t k,
                                      NodeId exclude);
  // Builds this node's upward pool from self + current child pools.
  RanSubCollectMsg BuildCollect();
  void SendSubsetsToChildren(const std::vector<PeerSummary>& parent_subset, int epoch);

  const ControlTree* tree_;
  NodeId self_;
  Rng rng_;
  std::function<PeerSummary()> summarize_;
  std::function<void(const std::vector<PeerSummary>&)> on_distribute_;
  std::function<void(NodeId, std::unique_ptr<Message>)> send_;
  EventQueue* queue_;

  // Most recent collect pool per child (index into tree children order).
  std::vector<std::unique_ptr<RanSubCollectMsg>> child_pools_;
  int epoch_ = 0;
};

}  // namespace bullet

#endif  // SRC_OVERLAY_RANSUB_H_
