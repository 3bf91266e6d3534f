#include "src/baselines/splitstream.h"

#include <algorithm>

namespace bullet {

SplitStream::SplitStream(const Context& ctx, const FileParams& file, NodeId source,
                         const StripeForest* forest)
    : DisseminationProtocol(ctx, file, source),
      forest_(forest),
      stripe_children_(static_cast<size_t>(kNumStripes)) {}

void SplitStream::Start() {
  // Group our stripe parents: one connection per distinct parent node, announcing
  // every stripe it feeds us on.
  stripe_parent_.assign(static_cast<size_t>(kNumStripes), -1);
  std::map<NodeId, std::vector<int>> by_parent;
  for (int stripe = 0; stripe < kNumStripes; ++stripe) {
    const NodeId p = forest_->trees[static_cast<size_t>(stripe)].parent[static_cast<size_t>(self())];
    if (p >= 0) {
      stripe_parent_[static_cast<size_t>(stripe)] = p;
      by_parent[p].push_back(stripe);
    }
  }
  for (const auto& [parent, stripes] : by_parent) {
    LinkParent(parent);
  }
  if (is_source()) {
    queue().ScheduleAfter(SecToSim(1.0), [this] { SourcePushTick(); });
  }
}

void SplitStream::LinkParent(NodeId parent) {
  if (parent_conns_.count(parent) != 0) {
    return;
  }
  if (net().IsNodeFailed(parent)) {
    RepairStripes(parent);  // reassigns its stripes and links the survivors
    return;
  }
  if (!net().NodeJoined(parent)) {
    // The forest spans the full member set, but this parent joins later; a
    // hello sent now would reach a node without a protocol and be lost.
    awaiting_join_.insert(parent);
    if (!join_retry_scheduled_) {
      join_retry_scheduled_ = true;
      queue().ScheduleAfter(kJoinRetry, [this] { JoinRetryTick(); });
    }
    return;
  }
  const ConnId conn = net().Connect(self(), parent);
  if (conn >= 0) {
    parent_conns_[parent] = conn;  // OnConnUp announces the assigned stripes.
  }
}

void SplitStream::JoinRetryTick() {
  join_retry_scheduled_ = false;
  if (net().queue().stopped() || net().IsNodeFailed(self())) {
    return;
  }
  std::vector<NodeId> ready;
  for (const NodeId p : awaiting_join_) {
    if (net().NodeJoined(p) || net().IsNodeFailed(p)) {
      ready.push_back(p);
    }
  }
  for (const NodeId p : ready) {
    awaiting_join_.erase(p);
    // Only link parents that still feed us a stripe (repair may have moved
    // every orphaned stripe elsewhere while we waited).
    bool feeds_us = false;
    for (int stripe = 0; stripe < kNumStripes; ++stripe) {
      if (stripe_parent_[static_cast<size_t>(stripe)] == p) {
        feeds_us = true;
        break;
      }
    }
    if (feeds_us) {
      LinkParent(p);
    }
  }
  if (!awaiting_join_.empty() && !join_retry_scheduled_) {
    join_retry_scheduled_ = true;
    queue().ScheduleAfter(kJoinRetry, [this] { JoinRetryTick(); });
  }
}

void SplitStream::OnConnUp(ConnId conn, NodeId peer, bool initiator) {
  if (!initiator) {
    return;
  }
  auto it = parent_conns_.find(peer);
  if (it == parent_conns_.end() || it->second != conn) {
    return;
  }
  up_parent_conns_.insert(conn);
  // Announce every stripe currently assigned to this parent — the forest
  // parents at start, plus any stripes regrafted here while the handshake
  // was in flight.
  auto hello = std::make_unique<ss::StripeHelloMsg>();
  for (int stripe = 0; stripe < kNumStripes; ++stripe) {
    if (stripe_parent_[static_cast<size_t>(stripe)] == peer) {
      hello->stripes.push_back(stripe);
    }
  }
  hello->Finalize();
  AccountControlOut(hello->wire_bytes);
  net().Send(conn, self(), std::move(hello));
}

void SplitStream::OnConnDown(ConnId conn, NodeId peer) {
  up_parent_conns_.erase(conn);
  const auto pit = parent_conns_.find(peer);
  const bool was_parent = pit != parent_conns_.end() && pit->second == conn;
  if (was_parent) {
    parent_conns_.erase(pit);
  }
  pending_.erase(conn);
  for (auto& kids : stripe_children_) {
    for (size_t i = 0; i < kids.size();) {
      if (kids[i] == conn) {
        kids[i] = kids.back();
        kids.pop_back();
      } else {
        ++i;
      }
    }
  }
  if (was_parent && !net().IsNodeFailed(self()) && !net().queue().stopped()) {
    RepairStripes(peer);
  }
}

void SplitStream::RepairStripes(NodeId failed) {
  // Deterministic reparenting: each orphaned stripe climbs its original tree's
  // ancestor chain from the departed parent, skipping failed nodes. The source
  // roots every stripe tree and never departs, so the climb terminates.
  std::map<NodeId, std::vector<int>> regraft;
  for (int stripe = 0; stripe < kNumStripes; ++stripe) {
    if (stripe_parent_[static_cast<size_t>(stripe)] != failed) {
      continue;
    }
    NodeId q = failed;
    while (q >= 0 && net().IsNodeFailed(q)) {
      q = forest_->trees[static_cast<size_t>(stripe)].parent[static_cast<size_t>(q)];
    }
    if (q < 0) {
      q = source_;
    }
    stripe_parent_[static_cast<size_t>(stripe)] = q;
    regraft[q].push_back(stripe);
  }
  for (const auto& [parent, stripes] : regraft) {
    auto it = parent_conns_.find(parent);
    if (it == parent_conns_.end()) {
      LinkParent(parent);  // OnConnUp (or the join poll) announces the stripes.
      continue;
    }
    if (up_parent_conns_.count(it->second) == 0) {
      continue;  // Handshake in flight; OnConnUp will announce these stripes too.
    }
    auto hello = std::make_unique<ss::StripeHelloMsg>();
    hello->stripes = stripes;
    hello->Finalize();
    AccountControlOut(hello->wire_bytes);
    net().Send(it->second, self(), std::move(hello));
  }
}

void SplitStream::OnMessage(ConnId conn, NodeId /*from*/, std::unique_ptr<Message> msg) {
  switch (msg->type) {
    case ss::StripeHelloMsg::kType: {
      AccountControlIn(msg->wire_bytes);
      for (const int stripe : static_cast<ss::StripeHelloMsg&>(*msg).stripes) {
        if (stripe >= 0 && stripe < kNumStripes) {
          stripe_children_[static_cast<size_t>(stripe)].push_back(conn);
        }
      }
      return;
    }
    case ss::StripeBlockMsg::kType: {
      const auto& block = static_cast<ss::StripeBlockMsg&>(*msg);
      AcceptBlock(block.block_id, block.wire_bytes);
      Forward(static_cast<int>(block.block_id) % kNumStripes, block.block_id);
      return;
    }
    default:
      return;
  }
}

void SplitStream::SourcePushTick() {
  const uint32_t total = file_.encoded ? file_.BlockSpace() : file_.num_blocks;
  // Streaming mode: the source mints at the stream bitrate, not line rate. The
  // encoded id space wraps onto playback positions (id mod n), so the paced
  // stream keeps refilling positions a subtree missed during an outage.
  const uint32_t released =
      stream() == nullptr
          ? total
          : static_cast<uint32_t>(std::min<uint64_t>(total, stream()->BlocksReleasable(now())));
  while (next_push_block_ < released) {
    const int stripe = static_cast<int>(next_push_block_) % kNumStripes;
    // Pace generation: only mint the next block when at least one child of this
    // stripe has a fully drained pipe; otherwise retry shortly. Slow children build
    // a backpressured pending queue instead of missing blocks.
    bool any_room = false;
    for (const ConnId conn : stripe_children_[static_cast<size_t>(stripe)]) {
      const auto pit = pending_.find(conn);
      const bool backlog = pit != pending_.end() && !pit->second.empty();
      if (!backlog && net().QueuedBytes(conn, self()) <
                          kForwardQueueBlocks * file_.block_bytes) {
        any_room = true;
        break;
      }
    }
    if (!any_room) {
      break;
    }
    if (file_.encoded) {
      have_.Set(next_push_block_);
      sketch_.AddBlock(next_push_block_);
    }
    Forward(stripe, next_push_block_);
    ++next_push_block_;
  }
  if (next_push_block_ < total && !net().queue().stopped()) {
    queue().ScheduleAfter(kSourcePushRetry, [this] { SourcePushTick(); });
  }
}

void SplitStream::Forward(int stripe, uint32_t id) {
  for (const ConnId conn : stripe_children_[static_cast<size_t>(stripe)]) {
    pending_[conn].push_back(id);
  }
  DrainPending();
}

void SplitStream::DrainPending() {
  bool backlog = false;
  for (auto& [conn, q] : pending_) {
    while (!q.empty() &&
           net().QueuedBytes(conn, self()) < kForwardQueueBlocks * file_.block_bytes) {
      auto msg = std::make_unique<ss::StripeBlockMsg>();
      msg->block_id = q.front();
      q.pop_front();
      msg->Finalize(file_.block_bytes);
      net().Send(conn, self(), std::move(msg));
    }
    backlog |= !q.empty();
  }
  if (backlog && !drain_scheduled_ && !net().queue().stopped()) {
    drain_scheduled_ = true;
    queue().ScheduleAfter(kDrainRetry, [this] {
      drain_scheduled_ = false;
      DrainPending();
    });
  }
}

}  // namespace bullet
