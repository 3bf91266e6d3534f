// Fig. 6: impact of the request strategy (first-encountered vs random vs
// rarest-random; plain rarest included as the fourth design point of Section 3.3.2)
// on Bullet' download times under random network losses.
//
// Expected shape (paper): first-encountered worst; rarest-random best for ~70% of
// receivers; plain random catches up in the tail because rarest decisions go stale
// on lossy links.

#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

const char* StrategyName(RequestStrategy s) {
  switch (s) {
    case RequestStrategy::kFirstEncountered:
      return "first-encountered";
    case RequestStrategy::kRandom:
      return "random";
    case RequestStrategy::kRarest:
      return "rarest";
    case RequestStrategy::kRarestRandom:
      return "rarest-random";
  }
  return "?";
}

BULLET_SCENARIO(fig06_request_strategy, "Fig. 6 — request strategy under random losses") {
  ScenarioConfig cfg;
  cfg.num_nodes = 100;
  cfg.file_mb = ScaledFileMb(100.0);
  cfg.seed = 601;
  ApplyScenarioOptions(opts, &cfg);

  ScenarioReport report(kScenarioName);
  for (const RequestStrategy strategy :
       {RequestStrategy::kRarestRandom, RequestStrategy::kRandom, RequestStrategy::kRarest,
        RequestStrategy::kFirstEncountered}) {
    BulletPrimeConfig bp;
    bp.request_strategy = strategy;
    report.AddCompletion(std::string("BulletPrime ") + StrategyName(strategy),
                         RunScenario("bullet-prime", cfg, bp));
  }
  return report;
}

}  // namespace
}  // namespace bullet
