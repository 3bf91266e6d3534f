// Unit and small-integration tests for the three comparison systems.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/baselines/bittorrent.h"
#include "src/baselines/bullet_legacy.h"
#include "src/baselines/splitstream.h"
#include "src/baselines/stripe_forest.h"
#include "src/harness/workload.h"

namespace bullet {
namespace {

MeshTopology SmallMesh(int n, uint64_t seed, double loss_max = 0.0) {
  Rng rng(seed);
  MeshTopology::MeshParams mesh;
  mesh.num_nodes = n;
  mesh.core_loss_max = loss_max;
  return MeshTopology::FullMesh(mesh, rng);
}

// ---------------- StripeForest ----------------

// SplitStream's invariant: node v is interior only in stripe v mod k.
bool InteriorDisjoint(const StripeForest& forest, NodeId root) {
  for (size_t stripe = 0; stripe < forest.trees.size(); ++stripe) {
    const ControlTree& tree = forest.trees[stripe];
    for (NodeId n = 0; n < tree.num_nodes(); ++n) {
      const bool interior = !tree.children[static_cast<size_t>(n)].empty();
      if (n != root && interior && static_cast<size_t>(n % forest.num_stripes) != stripe) {
        return false;
      }
    }
  }
  return true;
}

int MaxDepth(const StripeForest& forest) {
  int max_depth = 0;
  for (const ControlTree& tree : forest.trees) {
    for (NodeId n = 0; n < tree.num_nodes(); ++n) {
      int depth = 0;
      for (NodeId a = n; tree.parent[static_cast<size_t>(a)] >= 0;
           a = tree.parent[static_cast<size_t>(a)]) {
        ++depth;
      }
      max_depth = std::max(max_depth, depth);
    }
  }
  return max_depth;
}

TEST(StripeForest, InteriorDisjointInvariant) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const StripeForest forest = StripeForest::Build(100, 8, 0, rng);
    EXPECT_TRUE(InteriorDisjoint(forest, 0)) << "seed " << seed;
  }
}

TEST(StripeForest, EveryNodeAttachedInEveryStripe) {
  Rng rng(4);
  const StripeForest forest = StripeForest::Build(64, 8, 0, rng);
  for (const auto& tree : forest.trees) {
    int attached = 0;
    for (NodeId n = 0; n < 64; ++n) {
      if (tree.parent[static_cast<size_t>(n)] >= 0 || n == 0) {
        ++attached;
      }
    }
    EXPECT_EQ(attached, 64);
    EXPECT_EQ(tree.subtree_size[0], 64);
  }
}

TEST(StripeForest, BoundedDepth) {
  Rng rng(5);
  const StripeForest forest = StripeForest::Build(100, 8, 0, rng);
  EXPECT_LE(MaxDepth(forest), 6);
}

TEST(StripeForest, SmallSwarm) {
  Rng rng(6);
  const StripeForest forest = StripeForest::Build(4, 8, 0, rng);
  EXPECT_TRUE(InteriorDisjoint(forest, 0));
  for (const auto& tree : forest.trees) {
    EXPECT_EQ(tree.subtree_size[0], 4);
  }
}

// ---------------- end-to-end completion ----------------

FileParams SmallFile(bool encoded) {
  FileParams file;
  file.block_bytes = 16 * 1024;
  file.num_blocks = 64;  // 1 MB
  file.encoded = encoded;
  return file;
}

// One all-nodes session; the run's seed doubles as the session seed.
SessionSpec SmallSession(const std::string& protocol, uint64_t seed, bool encoded) {
  SessionSpec session;
  session.protocol = protocol;
  session.seed = seed;
  session.file = SmallFile(encoded);
  return session;
}

WorkloadParams RunParams(uint64_t seed, double deadline_sec) {
  WorkloadParams params;
  params.seed = seed;
  params.deadline = SecToSim(deadline_sec);
  return params;
}

TEST(BitTorrentSystem, SwarmCompletes) {
  WorkloadExperiment exp(SmallMesh(16, 31), RunParams(31, 600.0));
  exp.AddSession(SmallSession("bittorrent", 31, false));
  exp.Run();
  const RunMetrics& metrics = exp.session_metrics(0);
  EXPECT_EQ(metrics.completed(), 15);
  EXPECT_LT(metrics.DuplicateFraction(), 0.02);
}

TEST(BitTorrentSystem, UnchokeSlotsBounded) {
  // Stop mid-download.
  WorkloadExperiment exp(SmallMesh(20, 32), RunParams(32, 45.0));
  exp.AddSession(SmallSession("bittorrent", 32, false));
  exp.Run();
  for (NodeId n = 0; n < 20; ++n) {
    const auto* p = static_cast<const BitTorrent*>(exp.session_protocol(0, n));
    EXPECT_LE(p->num_unchoked(), BitTorrent::kUnchokeSlots + 1);  // + optimistic
  }
}

TEST(BulletLegacySystem, SwarmCompletesEncoded) {
  // The paper runs Bullet as source-encoded.
  WorkloadExperiment exp(SmallMesh(16, 33), RunParams(33, 600.0));
  exp.AddSession(SmallSession("bullet", 33, true));
  exp.Run();
  EXPECT_EQ(exp.session_metrics(0).completed(), 15);
}

// SplitStream over an explicitly built stripe forest (a "splitstream" session
// draws its own from the session seed).
void AddSplitStreamSession(WorkloadExperiment* exp, uint64_t seed, const StripeForest* forest) {
  const SessionSpec session = SmallSession("splitstream", seed, true);
  exp->AddSession(session, [file = session.file, forest](const Protocol::Context& ctx) {
    return std::make_unique<SplitStream>(ctx, file, /*source=*/0, forest);
  });
}

TEST(SplitStreamSystem, SwarmCompletesEncoded) {
  WorkloadExperiment exp(SmallMesh(16, 34), RunParams(34, 900.0));
  Rng forest_rng(34);
  const StripeForest forest = StripeForest::Build(16, 8, 0, forest_rng);
  AddSplitStreamSession(&exp, 34, &forest);
  exp.Run();
  const RunMetrics& metrics = exp.session_metrics(0);
  EXPECT_EQ(metrics.completed(), 15);
  // Push-only trees generate no request/diff traffic at all.
  EXPECT_LT(metrics.ControlOverheadFraction(), 0.01);
}

TEST(SplitStreamSystem, SlowInteriorStarvesOnlyItsStripe) {
  // Throttle every core link out of one interior node; receivers still complete
  // because the other stripes keep flowing (the encoded stream needs any 1.04n).
  MeshTopology topo = SmallMesh(16, 35);
  for (NodeId d = 0; d < 16; ++d) {
    if (d != 1) {
      topo.core(1, d).bandwidth_bps = 50e3;  // node 1 is interior in one stripe only
    }
  }
  WorkloadExperiment exp(std::move(topo), RunParams(35, 1800.0));
  Rng forest_rng(35);
  const StripeForest forest = StripeForest::Build(16, 8, 0, forest_rng);
  AddSplitStreamSession(&exp, 35, &forest);
  exp.Run();
  EXPECT_EQ(exp.session_metrics(0).completed(), 15);
}

}  // namespace
}  // namespace bullet
