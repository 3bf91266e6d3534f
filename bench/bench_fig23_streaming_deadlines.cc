// Fig. 23 (extension, no paper figure): playback-deadline (streaming)
// dissemination — the source releases positions at the stream bitrate, every
// receiver plays them in order after a startup buffer, and requests are
// confined to a sliding window ahead of the playhead (request_strategy
// PickWindowed; rarest-random applies *within* the window for Bullet').
// Late joiners tune in at the live edge rather than fetching from block 0.
//
// The figures of merit shift from download time to rebuffer/stall seconds and
// blocks that miss their fixed playback deadline, reported per system for
// Bullet', BitTorrent (window-filtered piece picking) and the repaired
// SplitStream (stripe forest reparenting, paced encoded source). Sweepable:
// --stream-window-blocks x --nodes x --loss (plus --stream-bitrate-mbps).

#include <memory>
#include <string>
#include <vector>

#include "src/harness/scenario_registry.h"
#include "src/harness/workload_gen.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig23_streaming_deadlines,
                "Extension — streaming playback deadlines: stall time and late blocks") {
  ScenarioConfig cfg;
  cfg.num_nodes = 100;
  cfg.file_mb = ScaledFileMb(50.0);
  cfg.seed = 2301;
  ApplyScenarioOptions(opts, &cfg);

  const StreamingSpec stream = cfg.streaming.value_or(StreamingSpec{});

  // Receivers tune in over the first ~30 seconds of the stream under the
  // diurnal rate curve, so the late ones exercise the live-edge catch-up path.
  // Shared across systems: every run sees the same arrival process.
  const auto arrivals = std::make_shared<DiurnalArrivals>(
      (cfg.num_nodes - 1) / 30.0, /*amplitude=*/0.8, /*period=*/SecToSim(60.0));

  ScenarioReport report(kScenarioName);
  for (const char* system : {"bullet-prime", "bittorrent", "splitstream"}) {
    WorkloadSpec workload;
    SessionSpec session;
    session.protocol = system;
    session.source = 0;
    session.seed = cfg.seed;
    session.arrivals = arrivals;
    session.streaming = stream;
    workload.sessions.push_back(std::move(session));

    const WorkloadResult wl = BuildScenarioExperiment(cfg, workload)->Run();
    const SessionResult& r = wl.sessions.front();
    report.AddCompletion(wl);
    report.AddSeries(r.name + " stall", r.stall_sec);
    std::vector<double> missed(r.missed_deadline.begin(), r.missed_deadline.end());
    report.AddSeries(r.name + " missed", std::move(missed));
    // Underscored keys: metric names are dotted with the series name downstream.
    const std::string key = std::string(system) == "bullet-prime" ? "bullet_prime"
                                                                  : std::string(system);
    report.AddScalar(key + "_stall_sec_total", r.total_stall_sec);
    report.AddScalar(key + "_missed_deadline_total", r.total_missed_deadline);
    report.AddScalar(key + "_playback_finished", r.playback_finished);
  }
  report.AddScalar("stream_bitrate_mbps", stream.bitrate_mbps);
  report.AddScalar("stream_window_blocks", stream.window_blocks);
  report.AddScalar("stream_startup_buffer_s", stream.startup_buffer_sec);
  return report;
}

}  // namespace
}  // namespace bullet
