// RanSub runs over the real emulated network here: a full overlay of RanSub-only
// protocols, asserting epoch delivery, subset sizes, freshness of summaries, and
// approximate uniformity of subset membership (chi-square).

#include "src/overlay/ransub.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/harness/workload.h"
#include "src/overlay/tree_overlay.h"

namespace bullet {
namespace {

// Minimal protocol that only exercises the tree + RanSub machinery.
class RanSubOnly : public TreeOverlayProtocol {
 public:
  RanSubOnly(const Context& ctx, const FileParams& file, const ControlTree* tree)
      : TreeOverlayProtocol(ctx, file, /*source=*/0, tree, RanSubAgent::Config{}) {}

  void OnProtocolMessage(ConnId /*conn*/, NodeId /*from*/,
                         std::unique_ptr<Message> /*msg*/) override {}
  void OnRanSubEpoch(const std::vector<PeerSummary>& subset) override {
    ++epochs;
    last_subset = subset;
    for (const auto& s : subset) {
      ++appearances[s.node];
    }
  }
  PeerSummary MakeSummary() override {
    PeerSummary s = TreeOverlayProtocol::MakeSummary();
    s.block_count = static_cast<uint32_t>(self()) + 1;  // distinctive payload
    return s;
  }

  int epochs = 0;
  std::vector<PeerSummary> last_subset;
  std::map<NodeId, int> appearances;
};

class RanSubFixture : public ::testing::Test {
 protected:
  void Run(int num_nodes, double run_sec, uint64_t seed = 33) {
    Rng topo_rng(seed);
    MeshTopology::MeshParams mesh;
    mesh.num_nodes = num_nodes;
    mesh.core_loss_max = 0.0;
    MeshTopology topo = MeshTopology::FullMesh(mesh, topo_rng);
    WorkloadParams params;
    params.seed = seed;
    params.deadline = SecToSim(run_sec);
    SessionSpec session;
    session.seed = seed;
    session.file.num_blocks = 16;
    exp_ = std::make_unique<WorkloadExperiment>(std::move(topo), params);
    protos_.clear();
    exp_->AddSession(session, [this, file = session.file](const Protocol::Context& ctx) {
      auto p = std::make_unique<RanSubOnly>(ctx, file, &exp_->session_tree(0));
      protos_.push_back(p.get());
      return p;
    });
    exp_->Run();
  }

  std::unique_ptr<WorkloadExperiment> exp_;
  std::vector<RanSubOnly*> protos_;
};

TEST_F(RanSubFixture, EverianNodeSeesEpochs) {
  Run(30, 31.0);
  for (const auto* p : protos_) {
    // ~6 epochs in 31 s at the paper's 5 s period (minus startup).
    EXPECT_GE(p->epochs, 4) << "node saw too few epochs";
    EXPECT_LE(p->epochs, 7);
  }
}

TEST_F(RanSubFixture, SubsetsHaveConfiguredSize) {
  Run(30, 21.0);
  for (const auto* p : protos_) {
    EXPECT_EQ(p->last_subset.size(), RanSubAgent::Config{}.subset_size);
  }
}

TEST_F(RanSubFixture, SubsetsExcludeSelfAndCarrySummaries) {
  Run(30, 21.0);
  for (size_t n = 0; n < protos_.size(); ++n) {
    for (const auto& s : protos_[n]->last_subset) {
      EXPECT_NE(s.node, static_cast<NodeId>(n));
      EXPECT_GE(s.node, 0);
      EXPECT_LT(s.node, 30);
      // Summaries carry the distinctive payload set in MakeSummary.
      EXPECT_EQ(s.block_count, static_cast<uint32_t>(s.node) + 1);
    }
  }
}

TEST_F(RanSubFixture, MembershipApproximatelyUniform) {
  Run(25, 90.0);
  // Pool appearances across all nodes and epochs.
  std::map<NodeId, int> total;
  int64_t samples = 0;
  for (const auto* p : protos_) {
    for (const auto& [node, count] : p->appearances) {
      total[node] += count;
      samples += count;
    }
  }
  ASSERT_GT(samples, 1000);
  const double expected = static_cast<double>(samples) / 25.0;
  double chi2 = 0.0;
  for (NodeId n = 0; n < 25; ++n) {
    const double c = total.count(n) > 0 ? total[n] : 0.0;
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 24 dof. The pipelined approximation is not perfectly uniform, so allow a
  // generous bound — this still catches gross bias (e.g. only tree neighbors ever
  // appearing), which would show chi2 in the thousands.
  EXPECT_LT(chi2 / samples, 0.5);
  // Every node must appear somewhere.
  EXPECT_EQ(total.size(), 25u);
}

}  // namespace
}  // namespace bullet
