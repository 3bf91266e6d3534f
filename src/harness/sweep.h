// Parallel scenario-sweep engine. A SweepSpec names one registered scenario, a
// cartesian parameter grid (axes), and a repeat count; RunSweep fans the resulting
// runs out across a worker pool and the aggregator reduces repeats into
// median/p10/p90 bands per grid point (schema bullet-bench-v3).
//
// Determinism contract: every run executes in an isolated ScenarioContext whose
// seed is derived from (base_seed, point_index, repeat) alone, and aggregate JSON
// contains no wall-clock or scheduling-dependent data — the same spec always
// produces byte-identical aggregate output, regardless of --jobs.

#ifndef SRC_HARNESS_SWEEP_H_
#define SRC_HARNESS_SWEEP_H_

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/profiler.h"
#include "src/harness/scenario_registry.h"

namespace bullet {

// One grid dimension: a canonical parameter key and its value texts. Supported
// keys are the sweepable rows of the scenario option table (scenario_registry),
// and each value is text that row's parse accepts, exactly as for its flag
// (e.g. SweepAxis{"nodes", {"20", "50"}}).
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

// Scenario × parameter grid × repeats. `base` carries fixed overrides that apply
// to every point (anything also named by an axis is overwritten per point).
struct SweepSpec {
  std::string name;        // output tag; defaults to the scenario name
  std::string scenario;
  int repeats = 1;
  uint64_t base_seed = 1;
  ScenarioOptions base;
  std::vector<SweepAxis> axes;

  std::string OutputName() const { return name.empty() ? scenario : name; }
};

// One cell of the expanded grid × repeat plan.
struct SweepPoint {
  int point_index = 0;  // grid cell, repeats excluded
  int repeat = 0;
  uint64_t seed = 0;    // DeriveSweepSeed(base_seed, point_index, repeat)
  // Axis assignments (key, value text) in axis-declaration order (stable for
  // JSON output).
  std::vector<std::pair<std::string, std::string>> params;
  ScenarioOptions options;  // base + params + seed, ready to hand to a scenario
};

// Isolated per-run execution state: own derived seed (inside point.options), own
// report sink, no mutable state shared with sibling runs. Workers write only to
// their own context, so results are position-stable regardless of scheduling.
struct ScenarioContext {
  SweepPoint point;
  std::optional<ScenarioReport> report;  // empty until the run finishes
  std::string error;                     // non-empty if the scenario threw
  // This run's wall time and deterministic counters (captured via a per-run
  // ScopedRunCounters install). Wall time feeds only the floors document —
  // never the aggregate, which must stay byte-identical across --jobs.
  double wall_sec = 0.0;
  RunCounters counters;
  // Per-phase totals; all zero unless the build has -DBULLET_PROFILE=ON.
  PhaseProfiler profile;
};

struct SweepRunOutcome {
  bool ok = false;
  std::string error;
  SweepSpec spec;
  // Grid-major, repeat-minor order (point 0 repeat 0, point 0 repeat 1, ...).
  std::vector<ScenarioContext> runs;
  int jobs_used = 0;
  double wall_sec = 0.0;  // informational only; never serialized to JSON
};

// Independent stream per (point, repeat): SplitMix64 over a mix of the base seed
// and both indices. Same inputs always give the same seed; distinct runs get
// decorrelated streams even for adjacent indices or base seeds.
uint64_t DeriveSweepSeed(uint64_t base_seed, int point_index, int repeat);

// Parses "key=v1,v2,..." (the --sweep argument form). On failure returns false and
// sets *error; *axis is only written on success. Each value goes through its
// option row's parse, so a sweep accepts exactly the values the flag accepts,
// and a rejected value's error carries the flag's message. Two values that
// denote the same value in one axis (loss=0,0.0) are an error (a duplicate
// would silently run one grid point twice).
bool ParseSweepAxisSpec(const std::string& text, SweepAxis* axis, std::string* error);

// Parses a sweep spec file: one directive per line, '#' comments and blank lines
// ignored.
//   scenario NAME        (required unless the caller pre-set spec->scenario)
//   name TAG             (optional output tag)
//   repeats N
//   seed N
//   set key=value        (fixed base override, e.g. "set block-bytes=8192")
//   sweep key=v1,v2,...  (one axis; repeatable)
// Directives layer onto whatever *spec already holds, so CLI flags can override
// file contents afterwards.
bool ParseSweepFile(std::istream& in, SweepSpec* spec, std::string* error);

// True when two axes share a key (writes it to *key) — such a grid would run the
// last axis's value under the first axis's label, so spec assembly must reject it.
bool FindDuplicateAxisKey(const std::vector<SweepAxis>& axes, std::string* key);

// Expands the cartesian product of the axes × repeats, in grid-major order with
// axis 0 slowest, applying each assignment with its option row's parse. An
// axis-free spec yields `repeats` runs of the single base point. Axis keys must
// be unique (see FindDuplicateAxisKey) and values valid (RunSweep checks both).
std::vector<SweepPoint> ExpandSweepGrid(const SweepSpec& spec);

// Runs every grid point through the registry's scenario on `jobs` worker threads
// (jobs <= 0 picks hardware concurrency). Blocks until all runs finish.
SweepRunOutcome RunSweep(const SweepSpec& spec, const ScenarioRegistry& registry, int jobs);

// Flattens one run's report into "series.metric" -> value pairs, the metric
// namespace the aggregator and bench_check operate on.
std::map<std::string, double> FlattenReportMetrics(const ScenarioReport& report);

// Serializes the aggregate bullet-bench-v3 document: spec echo, per-point params,
// and median/p10/p90 across repeats for every flattened metric. In profiled
// builds (PhaseProfiler::kCompiledIn) each point also carries a `profile`
// object of median per-phase *counts* — counts are deterministic, so the
// aggregate stays byte-identical across --jobs; nanoseconds never appear here.
void WriteSweepJson(std::ostream& os, const SweepRunOutcome& outcome);

// Serializes the companion bullet-floors-v1 document: per grid point, the
// median wall time and deterministic counters across repeats, plus the derived
// normalized throughputs (events/sec, simulated bytes/sec) the CI perf gate
// compares against committed floors (see docs/PERFORMANCE.md). This file is
// machine-dependent by design and is written separately from the aggregate.
void WriteSweepFloorsJson(std::ostream& os, const SweepRunOutcome& outcome);

// True when any run's report carries one of the deterministic memory-byte
// scalars (route_cache_bytes / path_pool_bytes / arena_peak_bytes) — the
// runner writes the ceilings companion only for such sweeps.
bool SweepHasCeilingMetrics(const SweepRunOutcome& outcome);

// Serializes the companion bullet-ceilings-v1 document: per grid point, the
// median of each memory-byte scalar across repeats, under a `ceilings` object.
// The CI memory gate compares a fresh document against a committed one with
// the floors mechanism inverted: current must stay at or *below* every
// committed ceiling. The scalars are deterministic byte counters (never RSS),
// so this document is byte-identical across --jobs like the aggregate.
void WriteSweepCeilingsJson(std::ostream& os, const SweepRunOutcome& outcome);

}  // namespace bullet

#endif  // SRC_HARNESS_SWEEP_H_
