#include "src/baselines/stripe_forest.h"

#include <algorithm>

namespace bullet {

StripeForest StripeForest::Build(int num_nodes, int num_stripes, NodeId root, Rng& rng) {
  StripeForest forest;
  forest.num_stripes = num_stripes;
  forest.trees.reserve(static_cast<size_t>(num_stripes));

  for (int stripe = 0; stripe < num_stripes; ++stripe) {
    ControlTree tree;
    tree.parent.assign(static_cast<size_t>(num_nodes), -1);
    tree.children.resize(static_cast<size_t>(num_nodes));
    tree.subtree_size.assign(static_cast<size_t>(num_nodes), 1);

    // Interior candidates for this stripe, in random order.
    std::vector<NodeId> interior;
    std::vector<NodeId> leaves;
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (n == root) {
        continue;
      }
      if (n % num_stripes == stripe) {
        interior.push_back(n);
      } else {
        leaves.push_back(n);
      }
    }
    rng.Shuffle(interior);
    rng.Shuffle(leaves);

    // The source feeds each stripe exactly once: the first interior node is the
    // stripe head under the root; remaining interior nodes attach breadth-first
    // below it with fanout = num_stripes (SplitStream's one-full-stream outdegree
    // budget per interior node).
    const size_t fanout = static_cast<size_t>(num_stripes);
    std::vector<NodeId> spine;
    size_t attach_at = 0;
    for (const NodeId n : interior) {
      NodeId p = root;
      if (!spine.empty()) {
        while (tree.children[static_cast<size_t>(spine[attach_at])].size() >= fanout) {
          ++attach_at;
        }
        p = spine[attach_at];
      }
      tree.parent[static_cast<size_t>(n)] = p;
      tree.children[static_cast<size_t>(p)].push_back(n);
      spine.push_back(n);
    }

    // Every remaining node attaches as a leaf under the least-loaded interior node.
    // Degenerate stripes with no interior candidates (tiny swarms) fall back to the
    // root — SplitStream's spare-capacity group.
    const std::vector<NodeId>& hosts = spine;
    for (const NodeId n : leaves) {
      NodeId best = root;
      size_t best_load = SIZE_MAX;
      for (const NodeId h : hosts) {
        const size_t load = tree.children[static_cast<size_t>(h)].size();
        if (load < fanout && load < best_load) {
          best_load = load;
          best = h;
        }
      }
      tree.parent[static_cast<size_t>(n)] = best;
      tree.children[static_cast<size_t>(best)].push_back(n);
    }

    // Subtree sizes (BFS order, accumulate bottom-up).
    std::vector<NodeId> order = {root};
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
    forest.trees.push_back(std::move(tree));
  }
  return forest;
}

}  // namespace bullet
