// Bullet (Kostic et al., SOSP'03) baseline — the paper's own predecessor system.
//
// Differences from Bullet' that this implementation preserves (Sections 2-3 of the
// 2005 paper discuss each): data is *pushed down the overlay tree* in disjoint
// subsets (each node forwards an incoming block to one tree child, round-robin,
// skipping children whose pipe is full), and receivers recover the rest from a mesh
// of peers discovered via RanSub. The released Bullet uses a fixed peer set of 10
// senders, a fixed outstanding window of 5 blocks per peer, epoch-driven (not
// self-clocking) availability summaries, and a source-encoded stream: nodes complete
// once they hold (1+eps)n distinct blocks (the experiments charge the same 4%
// overhead the paper assumes, Section 4.2).
//
// Wire messages are shared with Bullet' (src/core/messages.h): both systems descend
// from the same codebase in the paper (MACEDON), and the message vocabulary —
// peering, diffs, block requests, blocks — is identical; only the policies differ.

#ifndef SRC_BASELINES_BULLET_LEGACY_H_
#define SRC_BASELINES_BULLET_LEGACY_H_

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/core/messages.h"
#include "src/core/request_strategy.h"
#include "src/overlay/tree_overlay.h"

namespace bullet {

class BulletLegacy : public TreeOverlayProtocol {
 public:
  BulletLegacy(const Context& ctx, const FileParams& file, NodeId source, const ControlTree* tree);

  void Start() override;
  int num_senders() const { return static_cast<int>(senders_.size()); }

 protected:
  void OnProtocolMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override;
  void OnPeerConnUp(ConnId conn, NodeId peer, bool initiator) override;
  void OnPeerConnDown(ConnId conn, NodeId peer) override;
  void OnRanSubEpoch(const std::vector<PeerSummary>& subset) override;
  PeerSummary MakeSummary() override;

 private:
  static constexpr int kNumSenders = 10;  // fixed peer set (Section 3.3.1: "the released Bullet")
  static constexpr int kMaxReceivers = 14;
  static constexpr int kOutstanding = 5;  // fixed per-peer window
  static constexpr RequestStrategy kRequestStrategy = RequestStrategy::kFirstEncountered;
  static constexpr SimTime kSummaryPeriod = SecToSim(5.0);  // periodic availability diffs
  static constexpr int kForwardQueueBlocks = 3;             // per-child push queue cap
  static constexpr SimTime kSourcePushRetry = MsToSim(20);

  struct Sender {
    NodeId node = -1;
    ConnId conn = -1;
    bool active = false;
    Bitmap has;
    CandidateSet candidates;
    int outstanding = 0;
    int64_t epoch_bytes = 0;
    SimTime connected_at = 0;
  };
  struct Receiver {
    NodeId node = -1;
    ConnId conn = -1;
    Bitmap told;
  };

  void SourcePushTick();
  void ForwardPushed(uint32_t id);
  void ConnectToSender(NodeId node);
  void IssueRequests(Sender& s);
  void SendDiff(Receiver& r);
  void PeriodicSummaries();

  std::map<ConnId, Sender> senders_;
  std::set<NodeId> sender_nodes_;
  std::unordered_map<uint32_t, ConnId> requested_;
  std::map<ConnId, Receiver> receivers_;

  uint32_t next_push_block_ = 0;
  size_t next_push_child_ = 0;
  size_t next_forward_child_ = 0;
};

}  // namespace bullet

#endif  // SRC_BASELINES_BULLET_LEGACY_H_
