// Base class for protocols that maintain the control tree and run RanSub over it
// (Bullet' and the original Bullet). Handles: connecting to the tree parent,
// identifying tree connections via a hello message, routing RanSub messages to the
// agent, and exposing per-child tree connections for source-style pushing.

#ifndef SRC_OVERLAY_TREE_OVERLAY_H_
#define SRC_OVERLAY_TREE_OVERLAY_H_

#include <map>
#include <memory>
#include <vector>

#include "src/overlay/control_tree.h"
#include "src/overlay/dissemination.h"
#include "src/overlay/ransub.h"

namespace bullet {

struct TreeHelloMsg : Message {
  static constexpr int kType = 9000;
  TreeHelloMsg() {
    type = kType;
    wire_bytes = 8;
  }
};

class TreeOverlayProtocol : public DisseminationProtocol {
 public:
  TreeOverlayProtocol(const Context& ctx, const FileParams& file, NodeId source,
                      const ControlTree* tree);

  void Start() override;
  void OnConnUp(ConnId conn, NodeId peer, bool initiator) override;
  void OnConnDown(ConnId conn, NodeId peer) override;
  void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override;

 protected:
  // Called for every non-tree, non-RanSub message.
  virtual void OnProtocolMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) = 0;
  // Called for every connection event that is not a tree connection.
  virtual void OnPeerConnUp(ConnId /*conn*/, NodeId /*peer*/, bool /*initiator*/) {}
  virtual void OnPeerConnDown(ConnId /*conn*/, NodeId /*peer*/) {}
  // Fired once per RanSub epoch with this node's random subset.
  virtual void OnRanSubEpoch(const std::vector<PeerSummary>& subset) = 0;
  // Advertised summary; protocols may override to add rate information.
  virtual PeerSummary MakeSummary();

  const ControlTree& tree() const { return *tree_; }
  // Tree connection to a specific child; -1 if not (yet) established.
  ConnId ChildConn(NodeId child) const;
  const std::vector<NodeId>& tree_children() const {
    return tree_->children[static_cast<size_t>(self())];
  }
  void SendOnTree(NodeId peer, std::unique_ptr<Message> msg);

  std::unique_ptr<RanSubAgent> ransub_;

 private:
  const ControlTree* tree_;
  ConnId parent_conn_ = -1;
  std::map<NodeId, ConnId> child_conns_;
};

}  // namespace bullet

#endif  // SRC_OVERLAY_TREE_OVERLAY_H_
