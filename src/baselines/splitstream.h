// SplitStream baseline (Castro et al., SOSP'03), as the paper's "MACEDON SplitStream
// MS" comparison point: the content is split into k stripes, stripe i carrying blocks
// with id mod k == i, and each stripe is pushed down its own interior-node-disjoint
// tree. There is no pull path; resilience comes from the source-encoded stream —
// receivers complete once they hold (1 + eps) * n distinct blocks regardless of
// which stripes delivered them. A slow interior link starves only that stripe's
// subtree, which is exactly the monotonic-bandwidth-decrease tail the paper's CDFs
// show for tree-based systems.

#ifndef SRC_BASELINES_SPLITSTREAM_H_
#define SRC_BASELINES_SPLITSTREAM_H_

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "src/baselines/stripe_forest.h"
#include "src/overlay/dissemination.h"

namespace bullet {

namespace ss {

struct StripeHelloMsg : Message {
  static constexpr int kType = 401;
  std::vector<int> stripes;  // stripes for which the sender is our child
  void Finalize() {
    type = kType;
    wire_bytes = 12 + static_cast<int64_t>(stripes.size());
  }
};

struct StripeBlockMsg : Message {
  static constexpr int kType = 402;
  uint32_t block_id = 0;
  void Finalize(int64_t block_bytes) {
    type = kType;
    wire_bytes = block_bytes + 16;
  }
};

}  // namespace ss

class SplitStream : public DisseminationProtocol {
 public:
  // Stripes k; `forest` must hold this many trees.
  static constexpr int kNumStripes = 8;

  // `forest` must be shared by all nodes of the run (built from the same seed).
  SplitStream(const Context& ctx, const FileParams& file, NodeId source,
              const StripeForest* forest);

  void Start() override;
  void OnConnUp(ConnId conn, NodeId peer, bool initiator) override;
  void OnConnDown(ConnId conn, NodeId peer) override;
  void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override;

  // Introspection for tests: the node currently feeding us `stripe` (-1 at
  // the stripe root, or before Start).
  NodeId stripe_parent(int stripe) const {
    const size_t s = static_cast<size_t>(stripe);
    return s < stripe_parent_.size() ? stripe_parent_[s] : -1;
  }

 private:
  // Per-child connection-queue cap. Blocks beyond it wait in an application-level
  // pending queue (TCP backpressure): a slow link slows its whole subtree — the
  // monotonic bandwidth decrease inherent to tree delivery — but loses nothing.
  static constexpr int kForwardQueueBlocks = 4;
  static constexpr SimTime kDrainRetry = MsToSim(20);
  static constexpr SimTime kSourcePushRetry = MsToSim(20);
  // Poll interval while a stripe parent has not joined its session yet (the
  // forest is built over the full member set, but members join staggered).
  static constexpr SimTime kJoinRetry = MsToSim(500);

  void SourcePushTick();
  void Forward(int stripe, uint32_t id);
  void DrainPending();
  // Reparents every stripe `failed` was feeding us: climb the original stripe
  // tree's ancestor chain past failed nodes and graft onto the first survivor.
  void RepairStripes(NodeId failed);
  // Connects to `parent` if it has joined; otherwise queues it for the join
  // poll (a StripeHello sent before the peer installs its protocol is lost).
  void LinkParent(NodeId parent);
  void JoinRetryTick();

  const StripeForest* forest_;

  // Child connections per stripe (filled from StripeHello messages).
  std::vector<std::vector<ConnId>> stripe_children_;
  // Current parent node per stripe (-1 at the stripe root). Starts as the
  // forest parent and moves up the ancestor chain as parents depart.
  std::vector<NodeId> stripe_parent_;
  // Our parent connections, and which of them have completed their handshake.
  std::map<NodeId, ConnId> parent_conns_;
  std::set<ConnId> up_parent_conns_;
  // Backpressured per-child forwarding queues (block ids awaiting connection space).
  std::map<ConnId, std::deque<uint32_t>> pending_;
  bool drain_scheduled_ = false;
  // Stripe parents that had not joined their session at link time.
  std::set<NodeId> awaiting_join_;
  bool join_retry_scheduled_ = false;

  uint32_t next_push_block_ = 0;
};

}  // namespace bullet

#endif  // SRC_BASELINES_SPLITSTREAM_H_
