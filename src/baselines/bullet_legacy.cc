#include "src/baselines/bullet_legacy.h"

#include <algorithm>

namespace bullet {

BulletLegacy::BulletLegacy(const Context& ctx, const FileParams& file, NodeId source,
                           const ControlTree* tree)
    : TreeOverlayProtocol(ctx, file, source, tree, RanSubAgent::Config{}) {}

void BulletLegacy::Start() {
  TreeOverlayProtocol::Start();
  if (is_source()) {
    queue().ScheduleAfter(SecToSim(1.0), [this] { SourcePushTick(); });
  }
  queue().ScheduleAfter(kSummaryPeriod, [this] { PeriodicSummaries(); });
}

PeerSummary BulletLegacy::MakeSummary() {
  PeerSummary s = TreeOverlayProtocol::MakeSummary();
  if (is_source()) {
    // Bullet receivers recover from each other; the source only feeds the tree.
    s.block_count = 0;
    s.sketch_bits = 0;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Tree push: the source streams; interior nodes forward disjoint subsets.
// ---------------------------------------------------------------------------

void BulletLegacy::SourcePushTick() {
  const auto& kids = tree_children();
  const uint32_t total = file_.encoded ? file_.BlockSpace() : file_.num_blocks;
  if (!kids.empty()) {
    while (next_push_block_ < total) {
      bool sent = false;
      for (size_t i = 0; i < kids.size(); ++i) {
        const size_t idx = (next_push_child_ + i) % kids.size();
        const ConnId conn = ChildConn(kids[idx]);
        if (conn < 0 ||
            net().QueuedBytes(conn, self()) >= kForwardQueueBlocks * file_.block_bytes) {
          continue;
        }
        auto msg = std::make_unique<bp::BlockMsg>();
        msg->block_id = next_push_block_;
        msg->pushed = true;
        msg->Finalize(file_.block_bytes);
        net().Send(conn, self(), std::move(msg));
        if (file_.encoded) {
          have_.Set(next_push_block_);
          sketch_.AddBlock(next_push_block_);
        }
        next_push_child_ = (idx + 1) % kids.size();
        ++next_push_block_;
        sent = true;
        break;
      }
      if (!sent) {
        break;
      }
    }
  }
  if (next_push_block_ < total && !net().queue().stopped()) {
    queue().ScheduleAfter(kSourcePushRetry, [this] { SourcePushTick(); });
  }
}

void BulletLegacy::ForwardPushed(uint32_t id) {
  // Disjointness down the tree: each pushed block goes to exactly one child,
  // round-robin, skipping children whose pipe is already full (they will recover the
  // block from the mesh instead).
  const auto& kids = tree_children();
  if (kids.empty()) {
    return;
  }
  for (size_t i = 0; i < kids.size(); ++i) {
    const size_t idx = (next_forward_child_ + i) % kids.size();
    const ConnId conn = ChildConn(kids[idx]);
    if (conn < 0 ||
        net().QueuedBytes(conn, self()) >= kForwardQueueBlocks * file_.block_bytes) {
      continue;
    }
    auto msg = std::make_unique<bp::BlockMsg>();
    msg->block_id = id;
    msg->pushed = true;
    msg->Finalize(file_.block_bytes);
    net().Send(conn, self(), std::move(msg));
    next_forward_child_ = (idx + 1) % kids.size();
    return;
  }
}

// ---------------------------------------------------------------------------
// Mesh recovery
// ---------------------------------------------------------------------------

void BulletLegacy::OnRanSubEpoch(const std::vector<PeerSummary>& subset) {
  if (is_source() || complete()) {
    return;
  }
  // Replace senders that contributed nothing over a full epoch.
  std::vector<ConnId> dead;
  for (const auto& [conn, s] : senders_) {
    if (s.active && s.epoch_bytes == 0 && s.connected_at + SecToSim(10.0) < now()) {
      dead.push_back(conn);
    }
  }
  for (const ConnId conn : dead) {
    auto it = senders_.find(conn);
    sender_nodes_.erase(it->second.node);
    std::vector<uint32_t> requeue;
    for (const auto& [block, c] : requested_) {
      if (c == conn) {
        requeue.push_back(block);
      }
    }
    for (const uint32_t b : requeue) {
      requested_.erase(b);
    }
    net().Close(conn);
    senders_.erase(it);
  }
  for (auto& [conn, s] : senders_) {
    s.epoch_bytes = 0;
  }

  // Fill the fixed-size peer set, preferring peers with the most blocks.
  const int want = kNumSenders - static_cast<int>(sender_nodes_.size());
  if (want <= 0) {
    return;
  }
  std::vector<PeerSummary> ranked;
  for (const auto& peer : subset) {
    if (peer.node != self() && peer.node >= 0 && peer.block_count > 0 &&
        sender_nodes_.count(peer.node) == 0) {
      ranked.push_back(peer);
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const PeerSummary& a, const PeerSummary& b) { return a.block_count > b.block_count; });
  for (int i = 0; i < want && i < static_cast<int>(ranked.size()); ++i) {
    ConnectToSender(ranked[static_cast<size_t>(i)].node);
  }
}

void BulletLegacy::ConnectToSender(NodeId node) {
  const ConnId conn = net().Connect(self(), node);
  if (conn < 0) {
    return;
  }
  sender_nodes_.insert(node);
  Sender s;
  s.node = node;
  s.conn = conn;
  s.has.Resize(file_.BlockSpace());
  s.connected_at = now();
  senders_.emplace(conn, std::move(s));
}

void BulletLegacy::OnPeerConnUp(ConnId conn, NodeId /*peer*/, bool initiator) {
  if (initiator && senders_.count(conn) > 0) {
    auto req = std::make_unique<bp::PeerRequestMsg>();
    AccountControlOut(req->wire_bytes);
    net().Send(conn, self(), std::move(req));
  }
}

void BulletLegacy::OnPeerConnDown(ConnId conn, NodeId /*peer*/) {
  auto it = senders_.find(conn);
  if (it != senders_.end()) {
    sender_nodes_.erase(it->second.node);
    std::vector<uint32_t> requeue;
    for (const auto& [block, c] : requested_) {
      if (c == conn) {
        requeue.push_back(block);
      }
    }
    for (const uint32_t b : requeue) {
      requested_.erase(b);
    }
    senders_.erase(it);
    return;
  }
  receivers_.erase(conn);
}

void BulletLegacy::IssueRequests(Sender& s) {
  if (!s.active || complete()) {
    return;
  }
  const auto valid = [this](uint32_t id) {
    return !have_.Test(id) && requested_.find(id) == requested_.end();
  };
  const auto rarity = [](uint32_t) { return 0; };  // legacy Bullet has no rarity data
  while (s.outstanding < kOutstanding) {
    const auto pick = s.candidates.Pick(kRequestStrategy, valid, rarity, rng());
    if (!pick.has_value()) {
      break;
    }
    auto req = std::make_unique<bp::BlockRequestMsg>();
    req->block_id = *pick;
    AccountControlOut(req->wire_bytes);
    requested_.emplace(*pick, s.conn);
    ++s.outstanding;
    net().Send(s.conn, self(), std::move(req));
  }
}

// ---------------------------------------------------------------------------
// Periodic availability summaries (epoch-driven, unlike Bullet''s self-clocking)
// ---------------------------------------------------------------------------

void BulletLegacy::SendDiff(Receiver& r) {
  auto diff = std::make_unique<bp::DiffMsg>();
  diff->ids = have_.DiffFrom(r.told);
  if (diff->ids.empty()) {
    return;
  }
  for (const uint32_t id : diff->ids) {
    r.told.Set(id);
  }
  diff->Finalize(file_.BlockSpace());
  AccountControlOut(diff->wire_bytes);
  net().Send(r.conn, self(), std::move(diff));
}

void BulletLegacy::PeriodicSummaries() {
  for (auto& [conn, r] : receivers_) {
    SendDiff(r);
  }
  if (!net().queue().stopped()) {
    queue().ScheduleAfter(kSummaryPeriod, [this] { PeriodicSummaries(); });
  }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

void BulletLegacy::OnProtocolMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) {
  switch (msg->type) {
    case bp::PeerRequestMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      if (static_cast<int>(receivers_.size()) < kMaxReceivers) {
        Receiver r;
        r.node = from;
        r.conn = conn;
        r.told.Resize(file_.BlockSpace());
        auto [it, inserted] = receivers_.emplace(conn, std::move(r));
        auto accept = std::make_unique<bp::PeerAcceptMsg>();
        AccountControlOut(accept->wire_bytes);
        net().Send(conn, self(), std::move(accept));
        SendDiff(it->second);
      } else {
        auto reject = std::make_unique<bp::PeerRejectMsg>();
        AccountControlOut(reject->wire_bytes);
        net().Send(conn, self(), std::move(reject));
      }
      return;
    }
    case bp::PeerAcceptMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = senders_.find(conn);
      if (it != senders_.end()) {
        it->second.active = true;
      }
      return;
    }
    case bp::PeerRejectMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = senders_.find(conn);
      if (it != senders_.end()) {
        sender_nodes_.erase(it->second.node);
        senders_.erase(it);
      }
      net().Close(conn);
      return;
    }
    case bp::DiffMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = senders_.find(conn);
      if (it == senders_.end()) {
        return;
      }
      Sender& s = it->second;
      for (const uint32_t id : static_cast<bp::DiffMsg&>(*msg).ids) {
        if (id < file_.BlockSpace() && !s.has.Test(id)) {
          s.has.Set(id);
          if (!have_.Test(id)) {
            s.candidates.Add(id);
          }
        }
      }
      IssueRequests(s);
      return;
    }
    case bp::BlockRequestMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      auto it = receivers_.find(conn);
      if (it == receivers_.end()) {
        return;
      }
      const uint32_t id = static_cast<bp::BlockRequestMsg&>(*msg).block_id;
      if (!have_.Test(id)) {
        return;
      }
      it->second.told.Set(id);
      auto block = std::make_unique<bp::BlockMsg>();
      block->block_id = id;
      block->Finalize(file_.block_bytes);
      net().Send(conn, self(), std::move(block));
      return;
    }
    case bp::BlockMsg::kType: {
      auto& block = static_cast<bp::BlockMsg&>(*msg);
      if (block.pushed) {
        const bool fresh = AcceptBlock(block.block_id, block.wire_bytes);
        if (fresh && !complete()) {
          ForwardPushed(block.block_id);
        }
        return;
      }
      auto it = senders_.find(conn);
      if (it != senders_.end()) {
        Sender& s = it->second;
        s.outstanding = std::max(0, s.outstanding - 1);
        s.epoch_bytes += block.wire_bytes;
        requested_.erase(block.block_id);
        AcceptBlock(block.block_id, block.wire_bytes);
        if (!complete()) {
          IssueRequests(s);
        }
      } else {
        AcceptBlock(block.block_id, block.wire_bytes);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace bullet
