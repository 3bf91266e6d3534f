#include "src/overlay/control_tree.h"

namespace bullet {

ControlTree ControlTree::RandomStaged(int num_nodes, NodeId root,
                                      const std::vector<std::vector<NodeId>>& stages,
                                      int max_fanout, Rng& rng) {
  ControlTree tree;
  tree.parent.assign(static_cast<size_t>(num_nodes), -1);
  tree.children.resize(static_cast<size_t>(num_nodes));
  tree.subtree_size.assign(static_cast<size_t>(num_nodes), 1);

  // Nodes join at the root and descend (Overcast/Bullet-style): the source fills its
  // fanout first — it is the only node that pushes fresh blocks, so its degree sets
  // the system's injection capacity — and later joiners attach uniformly at random
  // among nodes with spare capacity. Stages keep the join schedule: a stage only
  // attaches to nodes from earlier stages (or earlier in its own shuffle).
  std::vector<NodeId> open = {root};
  for (const std::vector<NodeId>& stage : stages) {
    std::vector<NodeId> joiners = stage;
    rng.Shuffle(joiners);
    for (const NodeId n : joiners) {
      size_t pick = 0;
      if (static_cast<int>(tree.children[static_cast<size_t>(root)].size()) >= max_fanout ||
          open[0] != root) {
        pick = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1));
      }
      const NodeId p = open[pick];
      tree.parent[static_cast<size_t>(n)] = p;
      tree.children[static_cast<size_t>(p)].push_back(n);
      if (static_cast<int>(tree.children[static_cast<size_t>(p)].size()) >= max_fanout) {
        open[pick] = open.back();
        open.pop_back();
      }
      open.push_back(n);
    }
  }

  // Subtree sizes bottom-up: process nodes by decreasing depth.
  std::vector<NodeId> order;
  order.reserve(open.size());
  order.push_back(root);
  for (size_t i = 0; i < order.size(); ++i) {
    for (const NodeId c : tree.children[static_cast<size_t>(order[i])]) {
      order.push_back(c);
    }
  }
  for (size_t i = order.size(); i-- > 0;) {
    const NodeId n = order[i];
    const NodeId p = tree.parent[static_cast<size_t>(n)];
    if (p >= 0) {
      tree.subtree_size[static_cast<size_t>(p)] += tree.subtree_size[static_cast<size_t>(n)];
    }
  }
  return tree;
}

}  // namespace bullet
