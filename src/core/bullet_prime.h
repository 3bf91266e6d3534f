// Bullet' (Bullet prime) — the paper's primary contribution (Section 3).
//
// Architecture recap (Fig. 1): an overlay tree carries control traffic and RanSub
// epochs; the source pushes file blocks round-robin to its tree children; every other
// node pulls blocks over an adaptive mesh of peers discovered through RanSub. Nodes
// adapt (a) how many peers to receive from and send to (Fig. 2 pseudocode plus the
// 1.5-sigma trim), and (b) how many requests to keep outstanding per sender (Fig. 3,
// the XCP-derived controller). Availability spreads through incremental diffs that
// are self-clocking: piggybacked on served blocks, pushed when a receiver goes idle,
// and pulled explicitly when a receiver is about to run dry.

#ifndef SRC_CORE_BULLET_PRIME_H_
#define SRC_CORE_BULLET_PRIME_H_

#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/core/adaptation.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/core/request_strategy.h"
#include "src/overlay/tree_overlay.h"
#include "src/sim/scale/stable_flat_map.h"

namespace bullet {

class BulletPrime : public TreeOverlayProtocol {
 public:
  // Hard bounds on the sender and receiver sets (Section 3.3.1).
  static constexpr int kMinPeers = 6;   // hard minimum for senders and receivers
  static constexpr int kMaxPeers = 25;  // hard maximum for senders and receivers

  BulletPrime(const Context& ctx, const FileParams& file, NodeId source, const ControlTree* tree,
              const BulletPrimeConfig& config);

  void Start() override;

  // Introspection for tests.
  int num_senders() const;
  int num_receivers() const { return static_cast<int>(receivers_.size()); }
  int max_senders() const { return max_senders_; }

  // Diagnostic snapshot of one peering (tests and the inspect example).
  struct SenderDebug {
    NodeId node = -1;
    bool active = false;
    size_t has_count = 0;        // blocks known available at the sender
    size_t raw_candidates = 0;   // candidate entries (including stale)
    size_t valid_candidates = 0; // not held, not requested elsewhere
    int outstanding = 0;
    double desired = 0;
    bool diff_request_inflight = false;
  };
  std::vector<SenderDebug> DebugSenders() const;
  bool push_done() const { return push_done_; }

 protected:
  void OnProtocolMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override;
  void OnPeerConnUp(ConnId conn, NodeId peer, bool initiator) override;
  void OnPeerConnDown(ConnId conn, NodeId peer) override;
  void OnRanSubEpoch(const std::vector<PeerSummary>& subset) override;
  PeerSummary MakeSummary() override;
  void OnFileComplete() override;

 private:
  // --- Flow control (Section 3.3.3) ---
  static constexpr double kInitialOutstanding = 3.0;  // the paper's starting pipeline of 3 blocks
  // --- Availability diffs (Section 3.3.4) ---
  static constexpr SimTime kDiffFlushDelay = MsToSim(100);  // coalescing window for idle receivers
  // --- Source (Section 3.3.5) ---
  // The source's per-child queue threshold: skip a child whose pipe already holds
  // this many unsent blocks (so the source never forces a block on a busy child).
  static constexpr int kSourceChildQueueBlocks = 2;
  static constexpr SimTime kSourcePushRetry = MsToSim(20);

  // ---------- receiving role ----------
  struct Sender {
    NodeId node = -1;
    ConnId conn = -1;
    bool active = false;  // peering accepted
    Bitmap has;           // blocks known available at this sender
    CandidateSet candidates;
    int outstanding = 0;
    double desired = 3.0;
    bool mark_inflight = false;
    bool diff_request_inflight = false;
    // Set when a diff request came back empty; cleared by any fresh availability.
    // Prevents a dry receiver from polling an empty-handed sender at RTT rate — the
    // sender's idle-diff push (Section 3.3.4) is the wake-up channel instead.
    bool diff_request_exhausted = false;
    Ewma rate_Bps{0.3};  // receiver-measured bandwidth from this sender
    SimTime last_arrival = -1;
    SimTime connected_at = 0;
    int64_t epoch_bytes = 0;
  };

  // ---------- sending role ----------
  struct Receiver {
    NodeId node = -1;
    ConnId conn = -1;
    Bitmap told;  // blocks this receiver has been told about (or requested)
    bool diff_dirty = false;
    float reported_total_in_bps = 0;
    int64_t epoch_bytes = 0;
    SimTime connected_at = 0;
  };

  void SourcePushTick();
  void StreamRequestTick();
  void ConnectToSender(NodeId node);
  void DisconnectSender(ConnId conn, Sender& s);
  void IssueRequests(Sender& s);
  // Keep `requested_` and its dense mirror `is_requested_` in step.
  void MarkRequested(uint32_t id, ConnId conn) {
    requested_.emplace(id, conn);
    is_requested_[id] = 1;
  }
  void ClearRequested(uint32_t id) {
    requested_.erase(id);
    is_requested_[id] = 0;
  }
  // Clears and returns the blocks requested from `conn`, in `requested_`'s
  // iteration order (the order they are re-added to other senders).
  std::vector<uint32_t> TakeRequestsFrom(ConnId conn);
  int OutstandingLimit(const Sender& s) const;
  void HandleAvailability(Sender& s, const std::vector<uint32_t>& ids);
  void OnBlockMsg(ConnId conn, NodeId from, bp::BlockMsg& msg);
  void OnBlockRequest(ConnId conn, bp::BlockRequestMsg& msg);
  void ServeBlock(Receiver& r, uint32_t id, bool marked);
  void SendFullDiff(Receiver& r);
  void MarkReceiversDirtyOnNewBlock();
  void FlushDirtyDiffs();
  void ManageSenderSet(double epoch_sec, const std::vector<PeerSummary>& subset);
  void ManageReceiverSet(double epoch_sec);

  BulletPrimeConfig config_;

  // Counted on the network's ArenaCounter (mega-swarm): same ascending-ConnId
  // iteration order as the std::map it replaced, so results stay byte-identical.
  StableFlatMap<ConnId, Sender> senders_;
  std::set<NodeId> sender_nodes_;  // active + pending, to avoid duplicate peering
  // block id -> sender conn. Its iteration order fixes the order in which a
  // failed sender's requests are re-added elsewhere, so it stays a hash map;
  // `is_requested_` answers the per-candidate "requested?" test densely.
  std::unordered_map<uint32_t, ConnId> requested_;
  std::vector<char> is_requested_;  // per block id: 1 iff in requested_
  std::vector<int> rarity_;         // per block id: senders holding it

  StableFlatMap<ConnId, Receiver> receivers_;

  PeerSetState sender_adapt_;
  PeerSetState receiver_adapt_;
  int max_senders_ = 10;
  int max_receivers_ = 10;
  SimTime last_epoch_at_ = 0;

  // Source push state.
  uint32_t next_push_block_ = 0;
  size_t next_push_child_ = 0;
  bool push_done_ = false;
  bool push_scheduled_ = false;

  bool diff_flush_scheduled_ = false;
  Ewma incoming_total_Bps_{0.3};
};

}  // namespace bullet

#endif  // SRC_CORE_BULLET_PRIME_H_
