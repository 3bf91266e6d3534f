#include "src/overlay/tree_overlay.h"

namespace bullet {

TreeOverlayProtocol::TreeOverlayProtocol(const Context& ctx, const FileParams& file, NodeId source,
                                         const ControlTree* tree)
    : DisseminationProtocol(ctx, file, source), tree_(tree) {
  ransub_ = std::make_unique<RanSubAgent>(
      tree_, self(), rng().Fork(0x5a),
      [this] { return MakeSummary(); },
      [this](const std::vector<PeerSummary>& subset) { OnRanSubEpoch(subset); },
      [this](NodeId peer, std::unique_ptr<Message> msg) { SendOnTree(peer, std::move(msg)); },
      &queue());
}

PeerSummary TreeOverlayProtocol::MakeSummary() {
  PeerSummary s;
  s.node = self();
  s.block_count = static_cast<uint32_t>(have_.count());
  s.sketch_bits = sketch_.bits();
  return s;
}

void TreeOverlayProtocol::Start() {
  if (!tree_->IsRoot(self())) {
    const NodeId parent = tree_->parent[static_cast<size_t>(self())];
    parent_conn_ = net().Connect(self(), parent);
  } else {
    ransub_->Start();
  }
}

ConnId TreeOverlayProtocol::ChildConn(NodeId child) const {
  auto it = child_conns_.find(child);
  return it == child_conns_.end() ? -1 : it->second;
}

void TreeOverlayProtocol::SendOnTree(NodeId peer, std::unique_ptr<Message> msg) {
  ConnId conn = -1;
  if (!tree_->IsRoot(self()) && peer == tree_->parent[static_cast<size_t>(self())]) {
    conn = parent_conn_;
  } else {
    conn = ChildConn(peer);
  }
  if (conn >= 0) {
    net().Send(conn, self(), std::move(msg));
  }
  // A missing tree connection simply drops the message; RanSub recovers next epoch.
}

void TreeOverlayProtocol::OnConnUp(ConnId conn, NodeId peer, bool initiator) {
  if (initiator && conn == parent_conn_) {
    // Identify this as our tree link, then begin RanSub (the initial collect).
    net().Send(conn, self(), std::make_unique<TreeHelloMsg>());
    ransub_->Start();
    return;
  }
  OnPeerConnUp(conn, peer, initiator);
}

void TreeOverlayProtocol::OnConnDown(ConnId conn, NodeId peer) {
  if (conn == parent_conn_) {
    parent_conn_ = -1;  // Static membership in these experiments; no rejoin needed.
    return;
  }
  auto it = child_conns_.find(peer);
  if (it != child_conns_.end() && it->second == conn) {
    child_conns_.erase(it);
    return;
  }
  OnPeerConnDown(conn, peer);
}

void TreeOverlayProtocol::OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) {
  if (msg->type == TreeHelloMsg::kType) {
    child_conns_[from] = conn;
    return;
  }
  if (ransub_->HandleMessage(from, *msg)) {
    AccountControlIn(msg->wire_bytes);
    return;
  }
  OnProtocolMessage(conn, from, std::move(msg));
}

}  // namespace bullet
