#include "src/overlay/control_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace bullet {
namespace {

// The session shape: every non-root node joins in one stage under root 0.
ControlTree OneStage(int num_nodes, int max_fanout, Rng& rng) {
  std::vector<NodeId> joiners;
  for (NodeId n = 1; n < num_nodes; ++n) {
    joiners.push_back(n);
  }
  return ControlTree::RandomStaged(num_nodes, 0, {joiners}, max_fanout, rng);
}

int Depth(const ControlTree& tree, NodeId n) {
  int d = 0;
  while (tree.parent[static_cast<size_t>(n)] >= 0) {
    n = tree.parent[static_cast<size_t>(n)];
    ++d;
  }
  return d;
}

TEST(ControlTree, SingleNode) {
  Rng rng(1);
  ControlTree tree = OneStage(1, 4, rng);
  EXPECT_TRUE(tree.IsRoot(0));
  EXPECT_EQ(tree.subtree_size[0], 1);
  EXPECT_TRUE(tree.children[0].empty());
}

TEST(ControlTree, AllNodesAttached) {
  Rng rng(2);
  ControlTree tree = OneStage(100, 4, rng);
  int roots = 0;
  for (NodeId n = 0; n < 100; ++n) {
    if (tree.parent[static_cast<size_t>(n)] < 0) {
      ++roots;
      EXPECT_EQ(n, 0);
    }
  }
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(tree.subtree_size[0], 100);
}

TEST(ControlTree, FanoutBound) {
  Rng rng(3);
  const int fanout = 4;
  ControlTree tree = OneStage(200, fanout, rng);
  for (NodeId n = 0; n < 200; ++n) {
    EXPECT_LE(tree.children[static_cast<size_t>(n)].size(), static_cast<size_t>(fanout));
  }
}

TEST(ControlTree, ParentChildConsistency) {
  Rng rng(4);
  ControlTree tree = OneStage(60, 3, rng);
  for (NodeId n = 0; n < 60; ++n) {
    for (const NodeId c : tree.children[static_cast<size_t>(n)]) {
      EXPECT_EQ(tree.parent[static_cast<size_t>(c)], n);
    }
  }
}

TEST(ControlTree, SubtreeSizesConsistent) {
  Rng rng(5);
  ControlTree tree = OneStage(80, 4, rng);
  for (NodeId n = 0; n < 80; ++n) {
    int sum = 1;
    for (const NodeId c : tree.children[static_cast<size_t>(n)]) {
      sum += tree.subtree_size[static_cast<size_t>(c)];
    }
    EXPECT_EQ(tree.subtree_size[static_cast<size_t>(n)], sum);
  }
}

TEST(ControlTree, NoCycles) {
  Rng rng(6);
  ControlTree tree = OneStage(150, 4, rng);
  for (NodeId n = 0; n < 150; ++n) {
    std::set<NodeId> seen;
    NodeId cur = n;
    while (cur >= 0) {
      EXPECT_TRUE(seen.insert(cur).second) << "cycle at node " << n;
      cur = tree.parent[static_cast<size_t>(cur)];
    }
    EXPECT_TRUE(seen.count(0) == 1);  // all paths reach the root
  }
}

TEST(ControlTree, DepthIsLogarithmicish) {
  Rng rng(7);
  ControlTree tree = OneStage(100, 4, rng);
  int max_depth = 0;
  for (NodeId n = 0; n < 100; ++n) {
    max_depth = std::max(max_depth, Depth(tree, n));
  }
  // A random tree with fanout 4 on 100 nodes should not degenerate into a chain.
  EXPECT_LE(max_depth, 20);
  EXPECT_GE(max_depth, 3);
}

TEST(ControlTree, DeterministicGivenSeed) {
  Rng rng1(9);
  Rng rng2(9);
  ControlTree a = OneStage(50, 4, rng1);
  ControlTree b = OneStage(50, 4, rng2);
  EXPECT_EQ(a.parent, b.parent);
}

TEST(ControlTree, RandomStagedParentsJoinNoLaterThanChildren) {
  // Three join waves; every node's parent must be in an earlier-or-same wave,
  // so a staggered-join session can always connect child -> parent.
  Rng rng(31);
  std::vector<std::vector<NodeId>> stages = {{1, 2, 3}, {4, 5, 6, 7, 8}, {9, 10, 11}};
  std::vector<int> wave(12, 0);  // root 0 in wave 0
  for (size_t w = 0; w < stages.size(); ++w) {
    for (const NodeId n : stages[w]) {
      wave[static_cast<size_t>(n)] = static_cast<int>(w) + 1;
    }
  }
  ControlTree tree = ControlTree::RandomStaged(12, 0, stages, 3, rng);
  for (NodeId n = 1; n < 12; ++n) {
    const NodeId p = tree.parent[static_cast<size_t>(n)];
    ASSERT_GE(p, 0) << "node " << n << " unattached";
    EXPECT_LE(wave[static_cast<size_t>(p)], wave[static_cast<size_t>(n)])
        << "parent " << p << " of " << n << " joins later";
  }
  EXPECT_EQ(tree.subtree_size[0], 12);
}

TEST(ControlTree, RandomStagedSubsetLeavesNonMembersIsolated) {
  // A session over a member subset: the tree spans only root + stage members;
  // everyone else stays parentless with no children, and the root is the
  // session source (not node 0).
  Rng rng(13);
  ControlTree tree = ControlTree::RandomStaged(10, 4, {{2, 6}, {8}}, 4, rng);
  EXPECT_TRUE(tree.IsRoot(4));
  EXPECT_EQ(tree.subtree_size[4], 4);
  for (const NodeId member : {2, 6, 8}) {
    EXPECT_GE(tree.parent[static_cast<size_t>(member)], 0);
  }
  for (const NodeId outsider : {0, 1, 3, 5, 7, 9}) {
    EXPECT_LT(tree.parent[static_cast<size_t>(outsider)], 0);
    EXPECT_TRUE(tree.children[static_cast<size_t>(outsider)].empty());
  }
}

}  // namespace
}  // namespace bullet
