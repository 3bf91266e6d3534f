// The control tree used for joining the overlay and for RanSub epochs (Fig. 1 of the
// paper, step 1). Bullet' uses a basic random tree; the source is always the root.

#ifndef SRC_OVERLAY_CONTROL_TREE_H_
#define SRC_OVERLAY_CONTROL_TREE_H_

#include <vector>

#include "src/common/rng.h"
#include "src/sim/topology.h"

namespace bullet {

struct ControlTree {
  std::vector<NodeId> parent;                 // parent[root] == -1
  std::vector<std::vector<NodeId>> children;  // children[n] in attach order
  std::vector<int> subtree_size;              // including the node itself

  int num_nodes() const { return static_cast<int>(parent.size()); }
  bool IsRoot(NodeId n) const { return parent[static_cast<size_t>(n)] < 0; }

  // Random tree over a member subset with a join schedule: `stages` lists the
  // non-root members grouped by join time, earliest first. Each stage is
  // shuffled, then its members attach one by one to a random already-attached
  // node with spare fanout — so every parent joins no later than its children,
  // which is what lets staggered-join sessions connect child-to-parent at join
  // time. Nodes outside root/stages stay isolated (parent -1, no children);
  // tree vectors are always sized num_nodes so global NodeIds index directly.
  static ControlTree RandomStaged(int num_nodes, NodeId root,
                                  const std::vector<std::vector<NodeId>>& stages, int max_fanout,
                                  Rng& rng);
};

}  // namespace bullet

#endif  // SRC_OVERLAY_CONTROL_TREE_H_
