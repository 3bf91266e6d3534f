// Fig. 13 + Section 4.6: block inter-arrival times and the potential benefit of
// source encoding. Runs Bullet' (unencoded) on the lossy mesh recording every block
// arrival, reports the average inter-arrival time by arrival index (the paper's
// figure), and computes the paper's comparison: cumulative overage of the last 20
// blocks' inter-arrival over the mean, versus the download-time cost of a fixed 4%
// encoding overhead.
//
// Expected shape (paper): no sharp last-block spike; overage (~8 s at paper scale)
// is comparable to the 4% encoding cost (~7.6 s), so source encoding is of no clear
// benefit in this setting.

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/common/stats.h"
#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig13_interarrival_encoding, "Fig. 13 — inter-arrival vs encoding overhead") {
  ScenarioConfig cfg;
  cfg.num_nodes = 100;
  cfg.file_mb = ScaledFileMb(100.0);
  cfg.seed = 1301;
  cfg.record_arrivals = true;
  ApplyScenarioOptions(opts, &cfg);

  // Run the workload directly so we can reach per-node arrival times.
  SessionSpec session;
  session.seed = cfg.seed;
  session.file.block_bytes = cfg.block_bytes;
  session.file.num_blocks = FileBlocks(cfg.file_mb, cfg.block_bytes);
  WorkloadExperiment exp(BuildScenarioTopology(cfg), ScenarioWorkloadParams(cfg));
  exp.AddSession(session);
  exp.Run();
  const RunMetrics& metrics = exp.session_metrics(0);

  // Average inter-arrival time across receivers, by arrival index.
  const uint32_t n = session.file.num_blocks;
  std::vector<double> sum(n, 0.0);
  std::vector<int> count(n, 0);
  for (NodeId node = 1; node < cfg.num_nodes; ++node) {
    const auto& arrivals = metrics.node(node).block_arrivals;
    for (size_t i = 1; i < arrivals.size() && i < n; ++i) {
      sum[i] += SimToSec(arrivals[i] - arrivals[i - 1]);
      ++count[i];
    }
  }
  std::vector<double> avg_interarrival;
  for (uint32_t i = 1; i < n; ++i) {
    if (count[i] > 0) {
      avg_interarrival.push_back(sum[i] / count[i]);
    }
  }

  const double mean_gap = std::accumulate(avg_interarrival.begin(), avg_interarrival.end(), 0.0) /
                          std::max<size_t>(1, avg_interarrival.size());
  // Cumulative overage of the last 20 blocks vs the overall mean gap.
  double overage = 0.0;
  const size_t tail = std::min<size_t>(20, avg_interarrival.size());
  for (size_t i = avg_interarrival.size() - tail; i < avg_interarrival.size(); ++i) {
    overage += std::max(0.0, avg_interarrival[i] - mean_gap);
  }
  // Cost of a 4% reception overhead at the median observed download rate.
  const auto completion = metrics.CompletionSeconds(session.source);
  const double median_time = Percentile(completion, 0.5);
  const double encoding_cost = 0.04 * median_time;

  ScenarioReport report(kScenarioName);
  report.AddScalar("mean_gap_ms", mean_gap * 1e3);
  report.AddScalar("last20_overage_s", overage);
  report.AddScalar("encoding_cost_s", encoding_cost);
  report.AddScalar("encoding_wins", overage > encoding_cost ? 1 : 0);
  report.AddSeries("avg block inter-arrival (s), by arrival index", avg_interarrival);
  return report;
}

}  // namespace
}  // namespace bullet
