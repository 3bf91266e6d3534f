// Registry of named, parameterized scenarios. Every paper figure, churn sweep and
// ablation registers itself here (see bench/*.cc); the bullet_run CLI lists and runs
// them by name and serializes the resulting report to a BENCH_*.json metrics file.

#ifndef SRC_HARNESS_SCENARIO_REGISTRY_H_
#define SRC_HARNESS_SCENARIO_REGISTRY_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/cdf.h"
#include "src/common/options.h"
#include "src/harness/scenarios.h"

namespace bullet {

// Caller-supplied overrides; anything unset keeps the scenario's registered default.
struct ScenarioOptions {
  std::optional<int> nodes;
  std::optional<double> file_mb;
  std::optional<uint64_t> seed;
  std::optional<int64_t> block_bytes;
  std::optional<double> deadline_sec;
  // Per-link loss rates become uniform in [0, loss] (the Section 4.1 process with
  // a caller-chosen ceiling); 0 disables loss entirely.
  std::optional<double> loss;
  // Topology selector ("mesh" or "transit-stub", see ParseTopologyName).
  // Fixed-topology scenarios (fig12, fig15, fig16, fig17) ignore it like any
  // other override that does not apply.
  std::optional<std::string> topology;
  // Protocol selector — a kSystems key ("bullet-prime", "bullet",
  // "bittorrent", "splitstream"). The CLI validates it against kSystems;
  // scenarios with a fixed system roster (the multi-system comparison
  // figures) ignore it like any other override that does not apply.
  std::optional<std::string> system;
  // Fraction of receivers that join late in staggered-join scenarios
  // (fig18_flash_crowd, default 0.8; fig24_megaswarm, default 0.75); ignored
  // by everyone-at-t0 scenarios.
  std::optional<double> join_fraction;
  // Pareto tail index for lifetime-churn scenarios (fig21_churn_lifetimes);
  // ignored by scenarios without lifetime generators.
  std::optional<double> lifetime_pareto_alpha;
  // Churn model selector ("none", "leaf", "stub", "gateway") for scenarios
  // that honor it (fig22_correlated_failures); others ignore it.
  std::optional<std::string> churn_model;
  // Streaming (playback-deadline) overrides. fig23_streaming_deadlines
  // streams at them; on every other scenario that applies
  // ApplyScenarioOptions (all but fig15), setting either one turns each bulk
  // session of a system that streams into a streaming session
  // (ApplyScenarioOptions fills ScenarioConfig::streaming, and
  // BuildScenarioExperiment, fig12 and fig16 apply it).
  std::optional<double> stream_bitrate_mbps;
  std::optional<int> stream_window_blocks;
};

class JsonWriter;

// One row per generic scenario option. The bullet_run flag parser, the sweep
// engine (axis values, `set` lines, grid points) and the requested_options
// JSON echo all walk this table, so registering an option here is the single
// step that makes it a CLI flag, a sweep axis (when sweepable) and a
// serialized override.
struct ScenarioOptionDef {
  enum class Kind { kNumber, kString };

  const char* flag;      // CLI flag, e.g. "--nodes"
  const char* key;       // canonical sweep/set key, e.g. "nodes"
  // requested_options field name; nullptr = parsed but never echoed (--loss
  // has always been omitted from the echo and committed baselines pin that).
  const char* json_key;
  // kNumber values print as JSON numbers in sweep documents, kString as text.
  Kind kind = Kind::kNumber;
  bool sweepable = false;
  // The message when `parse` rejects a value ("--nodes requires an integer
  // ..."), for the CLI flag and every sweep value alike.
  const char* flag_error;
  // The one check of the option's value: parses the raw text (a flag value,
  // a sweep value or a `set` value), validates it and stores it into *opts.
  // May write a dynamic message to *error (e.g. --system listing the kSystems
  // keys); callers fall back to flag_error when *error stays empty.
  bool (*parse)(const std::string& text, ScenarioOptions* opts, std::string* error);
  // Emits the option into the requested_options object when set; null for
  // never-echoed options (json_key == nullptr).
  void (*echo)(const ScenarioOptions& opts, JsonWriter* json);
};

// The table, in requested_options emission order.
const std::vector<ScenarioOptionDef>& ScenarioOptionTable();
// nullptr when no row has that canonical key.
const ScenarioOptionDef* FindScenarioOptionByKey(const std::string& key);
// Comma-joined canonical keys of the sweepable rows (for error messages).
std::string SweepableOptionKeys();

// Applies the overrides that shape a run (nodes, file size, seed, block size,
// deadline, topology, loss, streaming) onto a scenario's default config. The
// scenario-specific ones (system, join fraction, lifetime alpha, churn model)
// stay in `opts`, and the scenarios that honor them read them there.
void ApplyScenarioOptions(const ScenarioOptions& opts, ScenarioConfig* cfg);

// Paper file size scaled by REPRO_SCALE (ci: 20%, full: 100%).
inline double ScaledFileMb(double paper_mb) { return paper_mb * GetReproScale().file_scale; }

// One named series of samples plus its side metrics (duplicate %, control %, ...).
struct SeriesReport {
  std::string name;
  std::vector<double> samples;
  std::vector<std::pair<std::string, double>> metrics;
};

// Everything a scenario run produced; the runner turns this into JSON and tables.
class ScenarioReport {
 public:
  explicit ScenarioReport(std::string scenario) : scenario_(std::move(scenario)) {}

  // Adds one completion-time series per session of `run`, named after the
  // session, with the standard per-system metrics attached: the session's own
  // numbers and the run's network-wide counters.
  void AddCompletion(const WorkloadResult& run);
  // The same for a one-session run, with the series named `name`.
  void AddCompletion(const std::string& name, const WorkloadResult& run);
  // Adds a bare sample series (e.g. inter-arrival gaps, survivor times). The
  // returned reference stays valid across later Add* calls (deque storage).
  SeriesReport& AddSeries(const std::string& name, std::vector<double> samples);
  // Adds a top-level scalar (e.g. an analytic reference line).
  void AddScalar(const std::string& key, double value);

  const std::string& scenario() const { return scenario_; }
  const std::deque<SeriesReport>& series() const { return series_; }
  const std::vector<std::pair<std::string, double>>& scalars() const { return scalars_; }

  // The series as CdfSeries rows for the human-readable summary table / CDF dump.
  std::vector<CdfSeries> AsCdfSeries() const;

 private:
  std::string scenario_;
  std::deque<SeriesReport> series_;
  std::vector<std::pair<std::string, double>> scalars_;
};

// Registered scenario functions must be self-contained: everything a run touches
// (RNG, topology, network, metrics) is owned by the run and seeded from its
// options. The sweep engine relies on this to execute many runs concurrently —
// the registry itself is only mutated by static initializers before main() and is
// read-only afterwards, so concurrent Find/List need no locking.
class ScenarioRegistry {
 public:
  using RunFn = std::function<ScenarioReport(const ScenarioOptions&)>;

  struct Entry {
    std::string name;
    std::string description;
    RunFn fn;
  };

  // The process-wide registry that BULLET_SCENARIO registers into.
  static ScenarioRegistry& Global();

  // Returns false (and leaves the registry unchanged) on a duplicate name.
  bool Register(const std::string& name, const std::string& description, RunFn fn);

  // nullptr when no scenario has that name.
  const Entry* Find(const std::string& name) const;
  // Sorted by name.
  std::vector<const Entry*> List() const;
  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, Entry> entries_;
};

namespace harness_internal {

struct ScenarioRegistrar {
  ScenarioRegistrar(const char* name, const char* description, ScenarioRegistry::RunFn fn);
};

}  // namespace harness_internal

}  // namespace bullet

// Defines and registers a scenario:
//
//   BULLET_SCENARIO(fig04_overall_static, "Fig. 4 — ...") {
//     ScenarioReport report(kScenarioName);
//     ...
//     return report;
//   }
//
// The body receives `const ScenarioOptions& opts` and `kScenarioName`.
#define BULLET_SCENARIO(scenario_name, description)                                         \
  static ::bullet::ScenarioReport BulletScenarioRun_##scenario_name(                        \
      const ::bullet::ScenarioOptions& opts, const char* kScenarioName);                    \
  static const ::bullet::harness_internal::ScenarioRegistrar                                \
      bullet_scenario_registrar_##scenario_name(                                            \
          #scenario_name, description, [](const ::bullet::ScenarioOptions& opts) {          \
            return BulletScenarioRun_##scenario_name(opts, #scenario_name);                 \
          });                                                                               \
  static ::bullet::ScenarioReport BulletScenarioRun_##scenario_name(                        \
      [[maybe_unused]] const ::bullet::ScenarioOptions& opts,                               \
      [[maybe_unused]] const char* kScenarioName)

#endif  // SRC_HARNESS_SCENARIO_REGISTRY_H_
