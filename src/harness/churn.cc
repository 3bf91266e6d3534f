#include "src/harness/churn.h"

#include <algorithm>
#include <map>

#include "src/common/logging.h"

namespace bullet {

LeafFailureChurn::LeafFailureChurn(int count, SimTime first_kill, SimTime interval)
    : count_(count), first_kill_(first_kill), interval_(interval) {
  BULLET_CHECK(count > 0 && "leaf churn needs a positive victim count");
  BULLET_CHECK(first_kill > 0 && "churn first_kill must be positive");
  BULLET_CHECK(interval > 0 && "churn interval must be positive");
}

std::vector<ChurnEvent> LeafFailureChurn::Schedule(const ChurnContext& ctx, Rng& rng) const {
  std::vector<ChurnEvent> events;
  SimTime at = first_kill_;
  for (const ChurnContext::SessionView& s : ctx.sessions) {
    BULLET_CHECK(s.tree != nullptr && "leaf churn needs session control trees");
    // Trees span global NodeIds; for subset sessions, non-members are also
    // childless, so select leaves from the member list, not the whole tree.
    std::vector<NodeId> leaves;
    for (const NodeId m : *s.members) {
      if (m != s.source && s.tree->children[static_cast<size_t>(m)].empty()) {
        leaves.push_back(m);
      }
    }
    for (const NodeId victim : rng.Sample(leaves, static_cast<size_t>(count_))) {
      events.push_back({victim, at});
      at += interval_;
    }
  }
  return events;
}

CorrelatedFailureChurn::CorrelatedFailureChurn(Scope scope, SimTime at)
    : scope_(scope), at_(at) {
  BULLET_CHECK(at > 0 && "correlated failure time must be positive");
}

std::vector<ChurnEvent> CorrelatedFailureChurn::Schedule(const ChurnContext& ctx,
                                                         Rng& rng) const {
  const RoutedTopology* topo = ctx.topology ? ctx.topology->AsRouted() : nullptr;
  BULLET_CHECK(topo != nullptr && "correlated failures need a routed topology");
  const RoutedTopology::TransitStubInfo* info = topo->transit_stub_info();
  BULLET_CHECK(info != nullptr && "correlated failures need a transit-stub topology");

  // Group session members by outage domain: the stub domain their attachment
  // router belongs to, or (gateway scope) the transit router above it.
  std::map<int, std::vector<NodeId>> groups;
  std::vector<char> is_source;
  for (const ChurnContext::SessionView& s : ctx.sessions) {
    for (const NodeId m : *s.members) {
      if (static_cast<size_t>(m) >= is_source.size()) {
        is_source.resize(static_cast<size_t>(m) + 1, 0);
      }
      if (m == s.source) is_source[static_cast<size_t>(m)] = 1;
      const int stub = info->stub_domain_of_router(topo->attach(m));
      BULLET_CHECK(stub >= 0 && "session member attached to a transit router");
      const int key = scope_ == Scope::kStubDomain ? stub : info->transit_router(stub);
      groups[key].push_back(m);
    }
  }

  // Candidates: domains holding at least one member and no source (the source
  // anchors the session; killing it measures nothing about peer churn).
  std::vector<const std::vector<NodeId>*> candidates;
  for (const auto& [key, members] : groups) {
    const bool holds_source =
        std::any_of(members.begin(), members.end(), [&](NodeId m) {
          return is_source[static_cast<size_t>(m)] != 0;
        });
    if (!holds_source) candidates.push_back(&members);
  }
  BULLET_CHECK(!candidates.empty() &&
               "no outage domain without a session source; too few stub domains?");

  const std::vector<NodeId>& victims =
      *candidates[static_cast<size_t>(rng.UniformInt(0, static_cast<int>(candidates.size()) - 1))];
  std::vector<ChurnEvent> events;
  events.reserve(victims.size());
  std::vector<NodeId> ordered = victims;
  std::sort(ordered.begin(), ordered.end());
  for (const NodeId v : ordered) {
    events.push_back({v, at_});
  }
  return events;
}

}  // namespace bullet
