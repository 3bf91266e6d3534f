// Command-line driver behind the bullet_run binary. Split from main() so the arg
// parsing, JSON emission and exit codes are unit-testable.

#ifndef SRC_HARNESS_SCENARIO_RUNNER_H_
#define SRC_HARNESS_SCENARIO_RUNNER_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/scenario_registry.h"
#include "src/harness/sweep.h"

namespace bullet {

struct RunnerArgs {
  bool ok = true;          // false => `error` says what was wrong
  std::string error;
  bool help = false;
  bool list = false;
  bool quiet = false;      // suppress the human-readable tables on stdout
  bool profile = false;    // print the per-phase profile summary (single runs)
  std::string scenario;
  std::string out_path;    // empty => BENCH_<scenario>.json in the working directory
  ScenarioOptions options;
  // The option-table flags as given, in argv order (sweep mode replays them
  // onto the sweep's base point).
  std::vector<std::pair<const ScenarioOptionDef*, std::string>> option_flags;

  // Sweep mode (any of --sweep/--sweep-file/--repeats engages it): the scenario
  // runs over a parameter grid on a worker pool instead of once.
  std::vector<SweepAxis> sweep_axes;       // parsed --sweep arguments, in order
  std::string sweep_file;                  // --sweep-file PATH
  std::optional<int> repeats;              // --repeats N
  std::optional<std::string> sweep_name;   // --sweep-name TAG
  int jobs = 0;                            // --jobs N; 0 = hardware concurrency
  std::string out_dir = ".";               // --out-dir for sweep artifacts

  bool sweep_mode() const {
    return !sweep_axes.empty() || !sweep_file.empty() || repeats.has_value();
  }
};

// Parses bullet_run flags: --list, --scenario NAME, --nodes N, --file-mb F,
// --seed S, --block-bytes B, --deadline-sec D, --loss L, --out PATH, --quiet,
// --help, and the sweep flags --sweep key=v1,v2 (repeatable), --sweep-file PATH,
// --repeats N, --jobs N, --sweep-name TAG, --out-dir DIR.
// Both "--flag value" and "--flag=value" forms are accepted.
RunnerArgs ParseRunnerArgs(int argc, const char* const* argv);

// Serializes a finished report (plus the options that produced it) as JSON
// (schema bullet-bench-v3). A non-null `profile` with recorded phases adds a
// `profile` block of per-phase {count, ns} totals — per-run documents may
// carry wall-clock data; sweep *aggregates* may not (see WriteSweepJson).
void WriteReportJson(std::ostream& os, const ScenarioReport& report,
                     const ScenarioOptions& options, const PhaseProfiler* profile = nullptr);

// Human-readable table behind `bullet_run --profile`: the deterministic run
// counters plus, in profiled builds, per-phase count/total/mean timings.
void PrintProfileSummary(std::ostream& os, const RunCounters& counters,
                         const PhaseProfiler& profile, double wall_sec);

void PrintScenarioList(std::ostream& os, const ScenarioRegistry& registry);
void PrintRunnerUsage(std::ostream& os);

// Full CLI flow against `registry`; returns the process exit code.
int RunnerMain(int argc, const char* const* argv, const ScenarioRegistry& registry,
               std::ostream& out, std::ostream& err);

// Convenience overload used by the bullet_run main(): global registry, std streams.
int RunnerMain(int argc, const char* const* argv);

}  // namespace bullet

#endif  // SRC_HARNESS_SCENARIO_RUNNER_H_
