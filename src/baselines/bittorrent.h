// BitTorrent baseline, faithful to the circa-2005 client the paper measured against:
// a centralized tracker (co-located with the seed, node 0), random peer lists,
// piece-level rarest-first selection with strict priority for partial pieces,
// block-granularity (sub-piece, 16 KB) requests with a fixed outstanding window of 5,
// and tit-for-tat choking: 4 regular unchoke slots ranked by rate (download rate at
// leechers, upload rate at the seed), re-evaluated every 10 s, plus one optimistic
// unchoke rotated every 30 s. Peers advertise completed pieces via HAVE broadcasts.
//
// Deliberate simplifications, documented in DESIGN.md: no endgame mode (the paper's
// BitTorrent exhibits the last-block tail this would partially mask) and no snubbing.

#ifndef SRC_BASELINES_BITTORRENT_H_
#define SRC_BASELINES_BITTORRENT_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/core/request_strategy.h"
#include "src/overlay/dissemination.h"
#include "src/sim/scale/stable_flat_map.h"

namespace bullet {

namespace bt {

constexpr int64_t kSmallHeader = 16;

struct TrackerRequestMsg : Message {
  static constexpr int kType = 201;
  TrackerRequestMsg() {
    type = kType;
    wire_bytes = 64;  // HTTP announce-sized
  }
};

struct TrackerResponseMsg : Message {
  static constexpr int kType = 202;
  std::vector<NodeId> peers;
  void Finalize() {
    type = kType;
    wire_bytes = kSmallHeader + static_cast<int64_t>(peers.size()) * 6;
  }
};

struct BitfieldMsg : Message {
  static constexpr int kType = 203;
  std::vector<uint32_t> pieces;  // completed pieces
  void Finalize(uint32_t total_pieces) {
    type = kType;
    wire_bytes = kSmallHeader + (total_pieces + 7) / 8;
  }
};

struct HaveMsg : Message {
  static constexpr int kType = 204;
  uint32_t piece = 0;
  HaveMsg() {
    type = kType;
    wire_bytes = 9;
  }
};

struct InterestMsg : Message {
  static constexpr int kType = 205;
  bool interested = false;
  InterestMsg() {
    type = kType;
    wire_bytes = 5;
  }
};

struct ChokeMsg : Message {
  static constexpr int kType = 206;
  bool choked = false;
  ChokeMsg() {
    type = kType;
    wire_bytes = 5;
  }
};

struct RequestMsg : Message {
  static constexpr int kType = 207;
  uint32_t block = 0;
  RequestMsg() {
    type = kType;
    wire_bytes = 17;
  }
};

struct PieceMsg : Message {
  static constexpr int kType = 208;
  uint32_t block = 0;
  void Finalize(int64_t block_bytes) {
    type = kType;
    wire_bytes = block_bytes + 13;
  }
};

}  // namespace bt

class BitTorrent : public DisseminationProtocol {
 public:
  // Regular (tit-for-tat) unchoke slots; the optimistic unchoke comes on top.
  static constexpr int kUnchokeSlots = 4;

  BitTorrent(const Context& ctx, const FileParams& file, NodeId source);

  void Start() override;
  void OnConnUp(ConnId conn, NodeId peer, bool initiator) override;
  void OnConnDown(ConnId conn, NodeId peer) override;
  void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override;

  int num_unchoked() const;

 private:
  static constexpr int kPieceBlocks = 16;    // 16 x 16 KB = 256 KB pieces
  static constexpr int kPeerListSize = 40;   // peers returned by the tracker
  static constexpr int kMaxConnections = 40;
  static constexpr SimTime kRechokePeriod = SecToSim(10.0);
  static constexpr SimTime kOptimisticPeriod = SecToSim(30.0);
  static constexpr int kOutstandingPerPeer = 5;  // BitTorrent's fixed pipeline (Section 4.5)

  struct Peer {
    NodeId node = -1;
    ConnId conn = -1;
    Bitmap pieces;          // completed pieces at the peer
    bool am_interested = false;
    bool peer_interested = false;
    bool am_choking = true;
    bool peer_choking = true;
    bool optimistic = false;
    int outstanding = 0;
    int64_t bytes_in_window = 0;   // received from peer since last rechoke
    int64_t bytes_out_window = 0;  // sent to peer since last rechoke
  };

  uint32_t NumPieces() const;
  uint32_t PieceOf(uint32_t block) const {
    return block / static_cast<uint32_t>(kPieceBlocks);
  }
  // Blocks [PieceBegin, PieceEnd) make up `piece`.
  uint32_t PieceBegin(uint32_t piece) const {
    return piece * static_cast<uint32_t>(kPieceBlocks);
  }
  uint32_t PieceEnd(uint32_t piece) const;
  bool PieceComplete(uint32_t piece) const;
  // The streaming request window at now(); nullopt in bulk mode.
  std::optional<StreamPlayback::RequestWindow> RequestWindowNow() const;
  // A block we still need and have not requested; streaming mode additionally
  // requires it inside the sliding playback window (released, not yet held).
  bool Requestable(uint32_t block,
                   const std::optional<StreamPlayback::RequestWindow>& window) const;
  // The requestable blocks of `piece` at now(), in block order.
  std::vector<uint32_t> RequestableBlocksOf(uint32_t piece) const;
  // Whether `piece` has a requestable block under `window`; allocation-free.
  bool HasRequestableBlock(uint32_t piece,
                           const std::optional<StreamPlayback::RequestWindow>& window) const;
  void StreamRequestTick();

  void HandleTrackerRequest(ConnId conn, NodeId from);
  void ConnectToPeers(const std::vector<NodeId>& list);
  void UpdateInterest(Peer& p);
  void IssueRequests(Peer& p);
  // Rarest-first piece selection among pieces available at `p`.
  int SelectPiece(const Peer& p);
  void Rechoke();
  void RotateOptimistic();
  void BroadcastHave(uint32_t piece);
  void OnPieceMsg(Peer& p, bt::PieceMsg& msg);

  // Counted on the network's ArenaCounter (mega-swarm): same ascending-ConnId
  // iteration order as the std::map it replaced, so results stay byte-identical.
  StableFlatMap<ConnId, Peer> peers_;
  // The nodes peers_ reaches, sorted and each once (a std::set's semantics at
  // 4 bytes an entry instead of a 40-byte tree node; at most kMaxConnections).
  std::vector<NodeId> peer_nodes_;
  std::unordered_map<uint32_t, ConnId> requested_;  // block -> conn
  std::vector<int> piece_rarity_;                   // per piece: peers holding it
  std::vector<int> piece_blocks_held_;              // per piece: blocks we hold
  std::vector<uint32_t> partial_pieces_;            // strict-priority queue

  // Tracker state (only used at node 0).
  std::vector<NodeId> swarm_;

  ConnId tracker_conn_ = -1;
  bool have_first_piece_ = false;
};

}  // namespace bullet

#endif  // SRC_BASELINES_BITTORRENT_H_
