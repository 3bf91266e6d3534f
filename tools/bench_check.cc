// CI perf gate: compares a fresh BENCH_sweep_*.json (bullet-bench-v3)
// against a committed baseline and exits nonzero when any metric median leaves
// its tolerance band. A bullet-floors-v1 baseline switches to the one-sided
// throughput-floor mode (current events/sec and sim-bytes/sec must meet the
// committed floors; tolerances do not apply). See README "Sweeps & perf
// gating" and docs/PERFORMANCE.md.
//
//   bench_check --baseline bench/baselines/ci_baseline.json --current BENCH_sweep_ci.json
//               [--rel-tol 0.25] [--abs-tol 1e-9] [--metric-tol NAME=REL]...
//   bench_check --baseline bench/baselines/ci_floors.json --current BENCH_sweep_ci_floors.json
//
// Exit codes: 0 all within tolerance, 1 regression, 2 usage/input error.

#include <iostream>
#include <string>

#include "src/harness/bench_check.h"
#include "src/harness/flag_parse.h"

namespace {

void PrintUsage(std::ostream& os) {
  os << "usage: bench_check --baseline PATH --current PATH\n"
        "                   [--rel-tol FRACTION]   default relative band (0.25)\n"
        "                   [--abs-tol VALUE]      absolute floor per band (1e-9)\n"
        "                   [--metric-tol NAME=F]  per-metric relative band, repeatable\n"
        "floors mode: a bullet-floors-v1 baseline gates one-sided\n"
        "(current >= floor); the tolerance flags are ignored\n"
        "exit: 0 pass, 1 regression, 2 bad input\n";
}

// Strict parse (rejects nan/inf — a NaN band would compare false against every
// diff and silently wave regressions through) plus the non-negativity tolerance
// bands require.
bool ParseFraction(const std::string& text, double* out) {
  double v = 0.0;
  if (!bullet::ParseStrictDouble(text, &v) || v < 0.0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  bullet::BenchCheckOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--baseline" && next(&baseline_path)) {
    } else if (arg == "--current" && next(&current_path)) {
    } else if (arg == "--rel-tol" && next(&value)) {
      if (!ParseFraction(value, &opts.rel_tol)) {
        std::cerr << "bench_check: bad --rel-tol '" << value << "'\n";
        return bullet::kBenchCheckBadInput;
      }
    } else if (arg == "--abs-tol" && next(&value)) {
      if (!ParseFraction(value, &opts.abs_tol)) {
        std::cerr << "bench_check: bad --abs-tol '" << value << "'\n";
        return bullet::kBenchCheckBadInput;
      }
    } else if (arg == "--metric-tol" && next(&value)) {
      const size_t eq = value.rfind('=');
      double tol = 0.0;
      if (eq == std::string::npos || eq == 0 || !ParseFraction(value.substr(eq + 1), &tol)) {
        std::cerr << "bench_check: bad --metric-tol '" << value << "' (want NAME=FRACTION)\n";
        return bullet::kBenchCheckBadInput;
      }
      opts.metric_rel_tol[value.substr(0, eq)] = tol;
    } else {
      std::cerr << "bench_check: unknown or incomplete argument '" << arg << "'\n";
      PrintUsage(std::cerr);
      return bullet::kBenchCheckBadInput;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::cerr << "bench_check: --baseline and --current are both required\n";
    PrintUsage(std::cerr);
    return bullet::kBenchCheckBadInput;
  }

  return bullet::CompareSweepFiles(baseline_path, current_path, opts, std::cout, std::cerr);
}
