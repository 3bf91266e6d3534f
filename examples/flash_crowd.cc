// Flash crowd: the paper's motivating scenario — one source, a crowd of receivers
// grabbing the same file at once — run across all four systems on the Section 4.1
// emulated topology, with and without dynamic bandwidth changes.
//
// Usage: flash_crowd [num_nodes] [file_mb]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/common/cdf.h"
#include "src/harness/scenarios.h"

int main(int argc, char** argv) {
  const int num_nodes = argc > 1 ? std::atoi(argv[1]) : 50;
  const double file_mb = argc > 2 ? std::atof(argv[2]) : 5.0;

  for (const bool dynamic : {false, true}) {
    std::printf("\n=== flash crowd: %d nodes, %.1f MB, %s conditions ===\n", num_nodes, file_mb,
                dynamic ? "dynamic (bandwidth halving every 20s)" : "static");
    std::vector<bullet::CdfSeries> series;
    for (const char* system : {"bullet-prime", "bullet", "bittorrent", "splitstream"}) {
      bullet::ScenarioConfig cfg;
      cfg.num_nodes = num_nodes;
      cfg.file_mb = file_mb;
      cfg.dynamic_bw = dynamic;
      cfg.seed = 21;
      const bullet::SessionResult r = bullet::RunScenario(system, cfg).sessions.front();
      std::printf("%-12s completed %d/%d, dup %.1f%%, ctrl %.1f%%\n", r.name.c_str(), r.completed,
                  r.receivers, r.duplicate_fraction * 100.0, r.control_overhead * 100.0);
      series.push_back(bullet::CdfSeries{r.name, r.completion_sec});
    }
    bullet::PrintSummaryTable(std::cout, series);
  }
  return 0;
}
