#include "src/baselines/bittorrent.h"

#include <algorithm>
#include <set>

#include "src/common/profiler.h"

namespace bullet {

namespace {

bool HasNode(const std::vector<NodeId>& nodes, NodeId n) {
  return std::binary_search(nodes.begin(), nodes.end(), n);
}

// Inserts `n` into the sorted `nodes` unless it is there already.
void InsertNode(std::vector<NodeId>& nodes, NodeId n) {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), n);
  if (it == nodes.end() || *it != n) {
    nodes.insert(it, n);
  }
}

// Erases `n` from the sorted `nodes` if it is there.
void EraseNode(std::vector<NodeId>& nodes, NodeId n) {
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), n);
  if (it != nodes.end() && *it == n) {
    nodes.erase(it);
  }
}

}  // namespace

BitTorrent::BitTorrent(const Context& ctx, const FileParams& file, NodeId source)
    : DisseminationProtocol(ctx, file, source), peers_(ctx.net->arena_counter()) {
  piece_rarity_.assign(NumPieces(), 0);
  piece_blocks_held_.assign(NumPieces(), 0);
  if (is_source()) {
    for (uint32_t piece = 0; piece < NumPieces(); ++piece) {
      piece_blocks_held_[piece] = static_cast<int>(PieceEnd(piece) - PieceBegin(piece));
    }
  }
}

uint32_t BitTorrent::NumPieces() const {
  return (file_.num_blocks + static_cast<uint32_t>(kPieceBlocks) - 1) /
         static_cast<uint32_t>(kPieceBlocks);
}

uint32_t BitTorrent::PieceEnd(uint32_t piece) const {
  return std::min(file_.num_blocks,
                  PieceBegin(piece) + static_cast<uint32_t>(kPieceBlocks));
}

bool BitTorrent::PieceComplete(uint32_t piece) const {
  return piece_blocks_held_[piece] >= static_cast<int>(PieceEnd(piece) - PieceBegin(piece));
}

std::optional<StreamPlayback::RequestWindow> BitTorrent::RequestWindowNow() const {
  if (stream() == nullptr) {
    return std::nullopt;
  }
  return stream()->WindowAt(now());
}

bool BitTorrent::Requestable(uint32_t block,
                             const std::optional<StreamPlayback::RequestWindow>& window) const {
  return !have_.Test(block) && requested_.find(block) == requested_.end() &&
         (!window.has_value() || window->Contains(block));
}

std::vector<uint32_t> BitTorrent::RequestableBlocksOf(uint32_t piece) const {
  const auto window = RequestWindowNow();
  std::vector<uint32_t> out;
  for (uint32_t b = PieceBegin(piece); b < PieceEnd(piece); ++b) {
    if (Requestable(b, window)) {
      out.push_back(b);
    }
  }
  return out;
}

bool BitTorrent::HasRequestableBlock(
    uint32_t piece, const std::optional<StreamPlayback::RequestWindow>& window) const {
  for (uint32_t b = PieceBegin(piece); b < PieceEnd(piece); ++b) {
    if (Requestable(b, window)) {
      return true;
    }
  }
  return false;
}

void BitTorrent::Start() {
  if (is_source()) {
    swarm_.push_back(self());
  } else {
    tracker_conn_ = net().Connect(self(), source_);
  }
  // Choking timers run at every node.
  queue().ScheduleAfter(kRechokePeriod, [this] { Rechoke(); });
  queue().ScheduleAfter(kOptimisticPeriod, [this] { RotateOptimistic(); });
  if (stream() != nullptr && !is_source()) {
    // Streaming mode: the window also slides with the source's release clock,
    // which no peer message announces — poll at the block cadence.
    queue().ScheduleAfter(stream()->block_duration(), [this] { StreamRequestTick(); });
  }
}

void BitTorrent::StreamRequestTick() {
  if (complete() || net().queue().stopped()) {
    return;
  }
  for (auto& [conn, p] : peers_) {
    if (!p.peer_choking && p.am_interested) {
      IssueRequests(p);
    }
  }
  queue().ScheduleAfter(stream()->block_duration(), [this] { StreamRequestTick(); });
}

void BitTorrent::OnConnUp(ConnId conn, NodeId /*peer*/, bool initiator) {
  if (conn == tracker_conn_) {
    auto req = std::make_unique<bt::TrackerRequestMsg>();
    AccountControlOut(req->wire_bytes);
    net().Send(conn, self(), std::move(req));
    return;
  }
  if (initiator) {
    // We initiated a peering: introduce ourselves with our bitfield.
    auto it = peers_.find(conn);
    if (it != peers_.end()) {
      auto bf = std::make_unique<bt::BitfieldMsg>();
      for (uint32_t piece = 0; piece < NumPieces(); ++piece) {
        if (PieceComplete(piece)) {
          bf->pieces.push_back(piece);
        }
      }
      bf->Finalize(NumPieces());
      AccountControlOut(bf->wire_bytes);
      net().Send(conn, self(), std::move(bf));
    }
  }
}

void BitTorrent::OnConnDown(ConnId conn, NodeId /*peer*/) {
  auto it = peers_.find(conn);
  if (it == peers_.end()) {
    return;
  }
  Peer& p = it->second;
  for (const uint32_t piece : p.pieces.SetBits()) {
    --piece_rarity_[piece];
  }
  std::vector<uint32_t> requeue;
  for (const auto& [block, c] : requested_) {
    if (c == conn) {
      requeue.push_back(block);
    }
  }
  for (const uint32_t b : requeue) {
    requested_.erase(b);
  }
  EraseNode(peer_nodes_, p.node);
  peers_.erase(it);
}

void BitTorrent::OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) {
  switch (msg->type) {
    case bt::TrackerRequestMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      HandleTrackerRequest(conn, from);
      return;
    }
    case bt::TrackerResponseMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      ConnectToPeers(static_cast<bt::TrackerResponseMsg&>(*msg).peers);
      // The tracker connection doubles as a peering with the seed.
      if (peers_.find(conn) == peers_.end() && !HasNode(peer_nodes_, from) &&
          static_cast<int>(peers_.size()) < kMaxConnections) {
        Peer p;
        p.node = from;
        p.conn = conn;
        p.pieces.Resize(NumPieces());
        peers_.emplace(conn, std::move(p));
        InsertNode(peer_nodes_, from);
        auto bf = std::make_unique<bt::BitfieldMsg>();
        for (uint32_t piece = 0; piece < NumPieces(); ++piece) {
          if (PieceComplete(piece)) {
            bf->pieces.push_back(piece);
          }
        }
        bf->Finalize(NumPieces());
        AccountControlOut(bf->wire_bytes);
        net().Send(conn, self(), std::move(bf));
      }
      return;
    }
    case bt::BitfieldMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto& bf = static_cast<bt::BitfieldMsg&>(*msg);
      auto it = peers_.find(conn);
      if (it == peers_.end()) {
        // Inbound peering: create state and reply with our bitfield.
        if (static_cast<int>(peers_.size()) >= kMaxConnections) {
          net().Close(conn);
          return;
        }
        Peer p;
        p.node = from;
        p.conn = conn;
        p.pieces.Resize(NumPieces());
        it = peers_.emplace(conn, std::move(p)).first;
        InsertNode(peer_nodes_, from);
        auto reply = std::make_unique<bt::BitfieldMsg>();
        for (uint32_t piece = 0; piece < NumPieces(); ++piece) {
          if (PieceComplete(piece)) {
            reply->pieces.push_back(piece);
          }
        }
        reply->Finalize(NumPieces());
        AccountControlOut(reply->wire_bytes);
        net().Send(conn, self(), std::move(reply));
      }
      for (const uint32_t piece : bf.pieces) {
        if (piece < NumPieces() && !it->second.pieces.Test(piece)) {
          it->second.pieces.Set(piece);
          ++piece_rarity_[piece];
        }
      }
      UpdateInterest(it->second);
      return;
    }
    case bt::HaveMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = peers_.find(conn);
      if (it == peers_.end()) {
        return;
      }
      const uint32_t piece = static_cast<bt::HaveMsg&>(*msg).piece;
      if (piece < NumPieces() && !it->second.pieces.Test(piece)) {
        it->second.pieces.Set(piece);
        ++piece_rarity_[piece];
      }
      UpdateInterest(it->second);
      IssueRequests(it->second);
      return;
    }
    case bt::InterestMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = peers_.find(conn);
      if (it != peers_.end()) {
        it->second.peer_interested = static_cast<bt::InterestMsg&>(*msg).interested;
      }
      return;
    }
    case bt::ChokeMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = peers_.find(conn);
      if (it == peers_.end()) {
        return;
      }
      Peer& p = it->second;
      p.peer_choking = static_cast<bt::ChokeMsg&>(*msg).choked;
      if (p.peer_choking) {
        // A choke discards our pending requests; re-request elsewhere.
        std::vector<uint32_t> requeue;
        for (const auto& [block, c] : requested_) {
          if (c == conn) {
            requeue.push_back(block);
          }
        }
        for (const uint32_t b : requeue) {
          requested_.erase(b);
        }
        p.outstanding = 0;
        for (auto& [c2, p2] : peers_) {
          if (!p2.peer_choking) {
            IssueRequests(p2);
          }
        }
      } else {
        IssueRequests(p);
      }
      return;
    }
    case bt::RequestMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = peers_.find(conn);
      if (it == peers_.end() || it->second.am_choking) {
        return;
      }
      const uint32_t block = static_cast<bt::RequestMsg&>(*msg).block;
      if (block >= file_.num_blocks || !have_.Test(block)) {
        return;
      }
      auto piece = std::make_unique<bt::PieceMsg>();
      piece->block = block;
      piece->Finalize(file_.block_bytes);
      it->second.bytes_out_window += piece->wire_bytes;
      net().Send(conn, self(), std::move(piece));
      return;
    }
    case bt::PieceMsg::kType: {
      auto it = peers_.find(conn);
      if (it != peers_.end()) {
        OnPieceMsg(it->second, static_cast<bt::PieceMsg&>(*msg));
      }
      return;
    }
    default:
      return;
  }
}

void BitTorrent::HandleTrackerRequest(ConnId conn, NodeId from) {
  if (std::find(swarm_.begin(), swarm_.end(), from) == swarm_.end()) {
    swarm_.push_back(from);
  }
  auto resp = std::make_unique<bt::TrackerResponseMsg>();
  std::vector<NodeId> others;
  for (const NodeId n : swarm_) {
    if (n != from) {
      others.push_back(n);
    }
  }
  resp->peers = rng().Sample(others, static_cast<size_t>(kPeerListSize));
  resp->Finalize();
  AccountControlOut(resp->wire_bytes);
  net().Send(conn, self(), std::move(resp));
}

void BitTorrent::ConnectToPeers(const std::vector<NodeId>& list) {
  for (const NodeId n : list) {
    if (n == self() || HasNode(peer_nodes_, n) ||
        static_cast<int>(peers_.size()) >= kMaxConnections) {
      continue;
    }
    const ConnId conn = net().Connect(self(), n);
    if (conn < 0) {
      continue;
    }
    Peer p;
    p.node = n;
    p.conn = conn;
    p.pieces.Resize(NumPieces());
    peers_.emplace(conn, std::move(p));
    InsertNode(peer_nodes_, n);
  }
}

void BitTorrent::UpdateInterest(Peer& p) {
  bool interested = false;
  if (!complete()) {
    for (const uint32_t piece : p.pieces.SetBits()) {
      if (!PieceComplete(piece)) {
        interested = true;
        break;
      }
    }
  }
  if (interested != p.am_interested) {
    p.am_interested = interested;
    auto msg = std::make_unique<bt::InterestMsg>();
    msg->interested = interested;
    AccountControlOut(msg->wire_bytes);
    net().Send(p.conn, self(), std::move(msg));
  }
}

int BitTorrent::SelectPiece(const Peer& p) {
  // Strict priority pass 1: pieces already started; pass 2: any piece. Rarest-first
  // with random tie-break in both passes.
  const auto window = RequestWindowNow();
  for (const bool partial_only : {true, false}) {
    int best = -1;
    int best_rarity = INT32_MAX;
    int ties = 0;
    for (uint32_t piece = 0; piece < NumPieces(); ++piece) {
      if (!p.pieces.Test(piece) || PieceComplete(piece)) {
        continue;
      }
      if (partial_only && piece_blocks_held_[piece] == 0) {
        continue;
      }
      if (!HasRequestableBlock(piece, window)) {
        continue;
      }
      const int r = piece_rarity_[piece];
      if (r < best_rarity) {
        best_rarity = r;
        best = static_cast<int>(piece);
        ties = 1;
      } else if (r == best_rarity) {
        ++ties;
        if (rng().UniformInt(1, ties) == 1) {
          best = static_cast<int>(piece);
        }
      }
    }
    if (best >= 0) {
      return best;
    }
  }
  return -1;
}

void BitTorrent::IssueRequests(Peer& p) {
  BULLET_PROFILE_SCOPE(ProfilePhase::kRequestStrategy);
  if (p.peer_choking || !p.am_interested || complete()) {
    return;
  }
  while (p.outstanding < kOutstandingPerPeer) {
    // Continue a partial piece if possible, otherwise pick a new one.
    int piece = SelectPiece(p);
    if (piece < 0) {
      UpdateInterest(p);
      return;
    }
    const auto missing = RequestableBlocksOf(static_cast<uint32_t>(piece));
    if (missing.empty()) {
      return;
    }
    for (const uint32_t block : missing) {
      if (p.outstanding >= kOutstandingPerPeer) {
        break;
      }
      auto req = std::make_unique<bt::RequestMsg>();
      req->block = block;
      AccountControlOut(req->wire_bytes);
      requested_.emplace(block, p.conn);
      ++p.outstanding;
      net().Send(p.conn, self(), std::move(req));
    }
  }
}

void BitTorrent::OnPieceMsg(Peer& p, bt::PieceMsg& msg) {
  p.outstanding = std::max(0, p.outstanding - 1);
  requested_.erase(msg.block);
  p.bytes_in_window += msg.wire_bytes;

  const uint32_t piece = PieceOf(msg.block);
  const bool fresh = AcceptBlock(msg.block, msg.wire_bytes);
  if (fresh) {
    ++piece_blocks_held_[piece];
    if (PieceComplete(piece)) {
      BroadcastHave(piece);
    }
  }
  if (complete()) {
    for (auto& [conn, peer] : peers_) {
      UpdateInterest(peer);
    }
    return;
  }
  IssueRequests(p);
}

void BitTorrent::BroadcastHave(uint32_t piece) {
  for (auto& [conn, p] : peers_) {
    auto msg = std::make_unique<bt::HaveMsg>();
    msg->piece = piece;
    AccountControlOut(msg->wire_bytes);
    net().Send(conn, self(), std::move(msg));
  }
}

void BitTorrent::Rechoke() {
  // Rank interested peers: leechers reciprocate download rate; the seed rewards
  // peers that drain its uplink fastest.
  std::vector<std::pair<int64_t, ConnId>> ranked;
  for (const auto& [conn, p] : peers_) {
    if (p.peer_interested) {
      const int64_t rate = complete() || is_source() ? p.bytes_out_window : p.bytes_in_window;
      ranked.emplace_back(rate, conn);
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });

  std::set<ConnId> unchoke;
  for (size_t i = 0; i < ranked.size() && static_cast<int>(unchoke.size()) < kUnchokeSlots;
       ++i) {
    unchoke.insert(ranked[i].second);
  }
  for (auto& [conn, p] : peers_) {
    if (p.optimistic && p.peer_interested) {
      unchoke.insert(conn);  // The optimistic slot rides on top of the regular slots.
    }
  }

  for (auto& [conn, p] : peers_) {
    const bool should_choke = unchoke.count(conn) == 0;
    if (should_choke != p.am_choking) {
      p.am_choking = should_choke;
      auto msg = std::make_unique<bt::ChokeMsg>();
      msg->choked = should_choke;
      AccountControlOut(msg->wire_bytes);
      net().Send(conn, self(), std::move(msg));
    }
    p.bytes_in_window = 0;
    p.bytes_out_window = 0;
  }
  queue().ScheduleAfter(kRechokePeriod, [this] { Rechoke(); });
}

void BitTorrent::RotateOptimistic() {
  std::vector<ConnId> candidates;
  for (auto& [conn, p] : peers_) {
    p.optimistic = false;
    if (p.peer_interested && p.am_choking) {
      candidates.push_back(conn);
    }
  }
  if (!candidates.empty()) {
    const ConnId pick = rng().Choice(candidates);
    Peer& p = peers_.at(pick);
    p.optimistic = true;
    if (p.am_choking) {
      p.am_choking = false;
      auto msg = std::make_unique<bt::ChokeMsg>();
      msg->choked = false;
      AccountControlOut(msg->wire_bytes);
      net().Send(pick, self(), std::move(msg));
    }
  }
  queue().ScheduleAfter(kOptimisticPeriod, [this] { RotateOptimistic(); });
}

int BitTorrent::num_unchoked() const {
  int n = 0;
  for (const auto& [conn, p] : peers_) {
    if (!p.am_choking) {
      ++n;
    }
  }
  return n;
}

}  // namespace bullet
