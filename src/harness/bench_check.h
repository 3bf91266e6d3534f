// Bench-regression gate: diffs a freshly produced sweep aggregate
// (bullet-bench-v3) against a committed baseline, with per-metric
// tolerance bands. When both documents carry the bullet-floors-v1 schema the
// comparison switches to the one-sided throughput-floor mode instead (current
// must meet or beat every committed floor). CI runs this via tools/bench_check
// and fails the build on any out-of-band metric.

#ifndef SRC_HARNESS_BENCH_CHECK_H_
#define SRC_HARNESS_BENCH_CHECK_H_

#include <map>
#include <ostream>
#include <string>

#include "src/harness/json_reader.h"

namespace bullet {

// Exit codes shared by CompareSweepDocs and the bench_check CLI.
enum BenchCheckStatus {
  kBenchCheckOk = 0,          // every baseline metric within tolerance
  kBenchCheckRegression = 1,  // at least one metric out of band / missing
  kBenchCheckBadInput = 2,    // unreadable / wrong-schema / mismatched documents
};

struct BenchCheckOptions {
  // Default relative band. A metric passes when
  //   |current - baseline| <= max(abs_tol, tol * |baseline|)
  // where tol is the per-metric override when present, else rel_tol.
  double rel_tol = 0.25;
  double abs_tol = 1e-9;
  std::map<std::string, double> metric_rel_tol;  // exact metric name -> rel tol
};

// Compares only point medians: they are what the repeats exist to stabilize, and
// p10/p90 of a 2-repeat CI sweep would gate on the noisier extremes. Every
// baseline point and metric must exist in `current`; extra points/metrics in
// `current` are ignored so new instrumentation never breaks the gate. Verdict
// lines (PASS/FAIL per comparison plus a summary) go to `log`.
//
// Both documents must carry the bullet-bench-v3 aggregate schema, or on both
// sides one of the two one-sided schemas, which the baseline's schema selects:
//
//  * Throughput floors (bullet-floors-v1): for every baseline point, each
//    metric under its `floors` object must satisfy current >= floor — faster
//    is never a failure.
//  * Memory ceilings (bullet-ceilings-v1): the floors gate inverted; each
//    metric under `ceilings` must satisfy current <= ceiling — using *less*
//    memory is never a failure. Ceilings gate deterministic byte counters
//    (route cache, path pools, arena peak), never RSS, so the comparison is
//    machine-independent.
//
// Both one-sided gates are tolerance-free: the committed floor or ceiling
// itself embeds any safety margin (see docs/PERFORMANCE.md for how floors are
// derived and updated), and the tolerances in `opts` are ignored. Anything
// else is bad input.
int CompareSweepDocs(const JsonValue& baseline, const JsonValue& current,
                     const BenchCheckOptions& opts, std::ostream& log);

// File-based wrapper: parses both paths then delegates to CompareSweepDocs.
int CompareSweepFiles(const std::string& baseline_path, const std::string& current_path,
                      const BenchCheckOptions& opts, std::ostream& log, std::ostream& err);

}  // namespace bullet

#endif  // SRC_HARNESS_BENCH_CHECK_H_
