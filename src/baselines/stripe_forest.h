// SplitStream's forest of k interior-node-disjoint stripe trees.
//
// SplitStream (SOSP'03) builds the forest over Pastry/Scribe: a node is interior in
// exactly the one stripe whose identifier shares its node-id digit, and a leaf in all
// others, so any node failure or slow uplink affects the interior of only one stripe.
// Pastry itself is orthogonal to the dissemination behaviour the 2005 paper measures,
// so we construct the forest directly with the same invariant: node v may be interior
// only in stripe v mod k. Interior nodes take up to k children each (mirroring
// SplitStream's outdegree budget of one full stream), so per-stripe capacity is
// (n/k) * k >= n - 1 and every node finds a parent. See DESIGN.md, substitutions.

#ifndef SRC_BASELINES_STRIPE_FOREST_H_
#define SRC_BASELINES_STRIPE_FOREST_H_

#include <vector>

#include "src/common/rng.h"
#include "src/overlay/control_tree.h"

namespace bullet {

struct StripeForest {
  int num_stripes = 8;
  std::vector<ControlTree> trees;  // one per stripe, all rooted at the source

  static StripeForest Build(int num_nodes, int num_stripes, NodeId root, Rng& rng);
};

}  // namespace bullet

#endif  // SRC_BASELINES_STRIPE_FOREST_H_
