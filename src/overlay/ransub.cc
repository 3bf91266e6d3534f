#include "src/overlay/ransub.h"

#include <algorithm>
#include <cmath>

namespace bullet {

namespace {

constexpr int64_t kMsgHeaderBytes = 16;

struct Candidate {
  PeerSummary summary;
  float weight = 1.0f;
  double key = 0.0;  // A-Res sampling key
};

}  // namespace

RanSubAgent::RanSubAgent(const ControlTree* tree, NodeId self, Rng rng,
                         std::function<PeerSummary()> summarize,
                         std::function<void(const std::vector<PeerSummary>&)> on_distribute,
                         std::function<void(NodeId, std::unique_ptr<Message>)> send_to_peer,
                         EventQueue* queue)
    : tree_(tree),
      self_(self),
      rng_(std::move(rng)),
      summarize_(std::move(summarize)),
      on_distribute_(std::move(on_distribute)),
      send_(std::move(send_to_peer)),
      queue_(queue) {
  child_pools_.resize(tree_->children[static_cast<size_t>(self_)].size());
}

void RanSubAgent::Start() {
  if (tree_->IsRoot(self_)) {
    // First epoch after one period, so nodes have joined and sent initial collects.
    queue_->ScheduleAfter(kEpochPeriod, [this] { RootEpoch(); });
  } else {
    // Seed the pipeline: send an initial collect so ancestors learn about us before
    // the first distribute arrives.
    auto collect = std::make_unique<RanSubCollectMsg>(BuildCollect());
    send_(tree_->parent[static_cast<size_t>(self_)], std::move(collect));
  }
}

bool RanSubAgent::HandleMessage(NodeId from, Message& msg) {
  if (msg.type == RanSubDistributeMsg::kType) {
    OnDistribute(static_cast<RanSubDistributeMsg&>(msg));
    return true;
  }
  if (msg.type == RanSubCollectMsg::kType) {
    OnCollect(from, static_cast<RanSubCollectMsg&>(msg));
    return true;
  }
  return false;
}

void RanSubAgent::RootEpoch() {
  ++epoch_;
  std::vector<const RanSubCollectMsg*> pools;
  for (const auto& p : child_pools_) {
    if (p != nullptr) {
      pools.push_back(p.get());
    }
  }
  const PeerSummary mine = summarize_();
  const std::vector<PeerSummary> self_extra = {mine};
  const std::vector<float> self_weight = {1.0f};

  // The root's own subset.
  std::vector<PeerSummary> my_subset =
      SampleFrom(pools, self_extra, self_weight, kSubsetSize, self_);
  on_distribute_(my_subset);

  SendSubsetsToChildren({}, epoch_);
  queue_->ScheduleAfter(kEpochPeriod, [this] { RootEpoch(); });
}

void RanSubAgent::OnDistribute(const RanSubDistributeMsg& msg) {
  epoch_ = msg.epoch;
  on_distribute_(msg.subset);
  SendSubsetsToChildren(msg.subset, msg.epoch);
  // Pipelined collect: push our current pool up so the root has it for next epoch.
  if (!tree_->IsRoot(self_)) {
    auto collect = std::make_unique<RanSubCollectMsg>(BuildCollect());
    collect->epoch = msg.epoch;
    send_(tree_->parent[static_cast<size_t>(self_)], std::move(collect));
  }
}

void RanSubAgent::OnCollect(NodeId from, const RanSubCollectMsg& msg) {
  const auto& kids = tree_->children[static_cast<size_t>(self_)];
  for (size_t i = 0; i < kids.size(); ++i) {
    if (kids[i] == from) {
      // Each child's entry is allocated once; later collects are assigned into
      // it, reusing its storage.
      if (child_pools_[i] == nullptr) {
        child_pools_[i] = std::make_unique<RanSubCollectMsg>();
      }
      RanSubCollectMsg& entry = *child_pools_[i];
      entry.epoch = msg.epoch;
      entry.pool = msg.pool;
      entry.weights = msg.weights;
      return;
    }
  }
}

std::vector<PeerSummary> RanSubAgent::SampleFrom(const std::vector<const RanSubCollectMsg*>& pools,
                                                 const std::vector<PeerSummary>& extra,
                                                 const std::vector<float>& extra_weights, size_t k,
                                                 NodeId exclude) {
  std::vector<Candidate> candidates;
  auto add = [&](const PeerSummary& s, float w) {
    if (s.node == exclude || w <= 0.0f) {
      return;
    }
    Candidate c;
    c.summary = s;
    c.weight = w;
    // Efraimidis-Spirakis A-Res: top-k by u^(1/w), i.e. max of log(u)/w.
    double u = rng_.UniformDouble();
    if (u <= 0.0) {
      u = 1e-300;
    }
    c.key = std::log(u) / static_cast<double>(w);
    candidates.push_back(c);
  };
  for (const auto* pool : pools) {
    for (size_t i = 0; i < pool->pool.size(); ++i) {
      add(pool->pool[i], i < pool->weights.size() ? pool->weights[i] : 1.0f);
    }
  }
  for (size_t i = 0; i < extra.size(); ++i) {
    add(extra[i], i < extra_weights.size() ? extra_weights[i] : 1.0f);
  }
  // Dedup by node id, keeping the best key.
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.summary.node != b.summary.node) {
      return a.summary.node < b.summary.node;
    }
    return a.key > b.key;
  });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const Candidate& a, const Candidate& b) {
                                 return a.summary.node == b.summary.node;
                               }),
                   candidates.end());
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.key > b.key; });
  if (candidates.size() > k) {
    candidates.resize(k);
  }
  std::vector<PeerSummary> out;
  out.reserve(candidates.size());
  for (const auto& c : candidates) {
    out.push_back(c.summary);
  }
  return out;
}

RanSubCollectMsg RanSubAgent::BuildCollect() {
  RanSubCollectMsg msg;
  msg.type = RanSubCollectMsg::kType;
  msg.epoch = epoch_;

  std::vector<Candidate> candidates;
  const PeerSummary mine = summarize_();
  {
    Candidate c;
    c.summary = mine;
    c.weight = 1.0f;
    double u = rng_.UniformDouble();
    if (u <= 0.0) {
      u = 1e-300;
    }
    c.key = std::log(u);
    candidates.push_back(c);
  }
  double total_weight = 1.0;
  for (const auto& pool : child_pools_) {
    if (pool == nullptr) {
      continue;
    }
    for (size_t i = 0; i < pool->pool.size(); ++i) {
      Candidate c;
      c.summary = pool->pool[i];
      c.weight = i < pool->weights.size() ? pool->weights[i] : 1.0f;
      total_weight += c.weight;
      double u = rng_.UniformDouble();
      if (u <= 0.0) {
        u = 1e-300;
      }
      c.key = std::log(u) / static_cast<double>(c.weight);
      candidates.push_back(c);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.key > b.key; });
  if (candidates.size() > kPoolSize) {
    candidates.resize(kPoolSize);
  }
  // Rescale weights so the pool still represents the whole subtree.
  double kept_weight = 0.0;
  for (const auto& c : candidates) {
    kept_weight += c.weight;
  }
  const double scale = kept_weight > 0.0 ? total_weight / kept_weight : 1.0;
  for (const auto& c : candidates) {
    msg.pool.push_back(c.summary);
    msg.weights.push_back(static_cast<float>(c.weight * scale));
  }
  msg.wire_bytes =
      kMsgHeaderBytes + static_cast<int64_t>(msg.pool.size()) * (PeerSummary::kWireBytes + 4);
  return msg;
}

void RanSubAgent::SendSubsetsToChildren(const std::vector<PeerSummary>& parent_subset, int epoch) {
  const auto& kids = tree_->children[static_cast<size_t>(self_)];
  if (kids.empty()) {
    return;
  }
  const int total_nodes = tree_->num_nodes();
  const int my_subtree = tree_->subtree_size[static_cast<size_t>(self_)];
  // Entries from the parent represent everything outside our subtree.
  float parent_weight = 1.0f;
  if (!parent_subset.empty()) {
    parent_weight = std::max(
        1.0f, static_cast<float>(total_nodes - my_subtree) / static_cast<float>(parent_subset.size()));
  }
  // The sample inputs do not depend on the child: each child's subset differs
  // only by whom it excludes and by its RNG draws.
  std::vector<const RanSubCollectMsg*> pools;
  for (const auto& p : child_pools_) {
    if (p != nullptr) {
      pools.push_back(p.get());
    }
  }
  std::vector<PeerSummary> extra = parent_subset;
  std::vector<float> extra_weights(parent_subset.size(), parent_weight);
  extra.push_back(summarize_());
  extra_weights.push_back(1.0f);

  for (size_t ci = 0; ci < kids.size(); ++ci) {
    auto msg = std::make_unique<RanSubDistributeMsg>();
    msg->type = RanSubDistributeMsg::kType;
    msg->epoch = epoch;
    msg->subset = SampleFrom(pools, extra, extra_weights, kSubsetSize, kids[ci]);
    msg->wire_bytes =
        kMsgHeaderBytes + static_cast<int64_t>(msg->subset.size()) * PeerSummary::kWireBytes;
    send_(kids[ci], std::move(msg));
  }
}

}  // namespace bullet
