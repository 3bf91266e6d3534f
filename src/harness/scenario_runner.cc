#include "src/harness/scenario_runner.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/common/cdf.h"
#include "src/common/stats.h"
#include "src/harness/flag_parse.h"
#include "src/harness/json_writer.h"
#include "src/harness/sweep.h"
#include "src/harness/workload.h"

namespace bullet {
namespace {

bool MatchesFlag(const std::string& arg, const std::string& flag) {
  return arg == flag || arg.compare(0, flag.size() + 1, flag + "=") == 0;
}

// Consumes the raw text of "--flag value" or "--flag=value"; false when missing.
bool ConsumeString(int argc, const char* const* argv, int* i, const std::string& arg,
                   const std::string& flag, std::string* out) {
  if (arg.compare(0, flag.size() + 1, flag + "=") == 0) {
    *out = arg.substr(flag.size() + 1);
    return !out->empty();
  }
  if (arg == flag) {
    if (*i + 1 >= argc) {
      return false;
    }
    *out = argv[++*i];
    return true;
  }
  return false;
}

}  // namespace

RunnerArgs ParseRunnerArgs(int argc, const char* const* argv) {
  RunnerArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      args.list = true;
    } else if (arg == "--help" || arg == "-h") {
      args.help = true;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--profile") {
      args.profile = true;
    } else if (MatchesFlag(arg, "--scenario")) {
      if (!ConsumeString(argc, argv, &i, arg, "--scenario", &args.scenario)) {
        args.ok = false;
        args.error = "--scenario requires a name";
        return args;
      }
    } else if (MatchesFlag(arg, "--out")) {
      if (!ConsumeString(argc, argv, &i, arg, "--out", &args.out_path)) {
        args.ok = false;
        args.error = "--out requires a path";
        return args;
      }
    } else if (const ScenarioOptionDef* def = [&arg]() -> const ScenarioOptionDef* {
                 for (const ScenarioOptionDef& d : ScenarioOptionTable()) {
                   if (MatchesFlag(arg, d.flag)) {
                     return &d;
                   }
                 }
                 return nullptr;
               }()) {
      std::string text;
      std::string error;
      if (!ConsumeString(argc, argv, &i, arg, def->flag, &text) ||
          !def->parse(text, &args.options, &error)) {
        args.ok = false;
        args.error = error.empty() ? def->flag_error : error;
        return args;
      }
      args.option_flags.emplace_back(def, std::move(text));
    } else if (MatchesFlag(arg, "--sweep")) {
      std::string text;
      SweepAxis axis;
      std::string sweep_error;
      if (!ConsumeString(argc, argv, &i, arg, "--sweep", &text) ||
          !ParseSweepAxisSpec(text, &axis, &sweep_error)) {
        args.ok = false;
        args.error = sweep_error.empty() ? "--sweep requires key=v1,v2,..." : sweep_error;
        return args;
      }
      args.sweep_axes.push_back(std::move(axis));
    } else if (MatchesFlag(arg, "--sweep-file")) {
      if (!ConsumeString(argc, argv, &i, arg, "--sweep-file", &args.sweep_file)) {
        args.ok = false;
        args.error = "--sweep-file requires a path";
        return args;
      }
    } else if (MatchesFlag(arg, "--sweep-name")) {
      std::string text;
      if (!ConsumeString(argc, argv, &i, arg, "--sweep-name", &text)) {
        args.ok = false;
        args.error = "--sweep-name requires a value";
        return args;
      }
      args.sweep_name = text;
    } else if (MatchesFlag(arg, "--repeats")) {
      std::string text;
      int64_t v = 0;
      if (!ConsumeString(argc, argv, &i, arg, "--repeats", &text) || !ParseStrictInt64(text, &v) ||
          v < 1 || v > 10000) {
        args.ok = false;
        args.error = "--repeats requires an integer in [1, 10000]";
        return args;
      }
      args.repeats = static_cast<int>(v);
    } else if (MatchesFlag(arg, "--jobs")) {
      std::string text;
      int64_t v = 0;
      if (!ConsumeString(argc, argv, &i, arg, "--jobs", &text) || !ParseStrictInt64(text, &v) ||
          v < 0 || v > 1024) {
        args.ok = false;
        args.error = "--jobs requires an integer in [0, 1024] (0 = auto)";
        return args;
      }
      args.jobs = static_cast<int>(v);
    } else if (MatchesFlag(arg, "--out-dir")) {
      if (!ConsumeString(argc, argv, &i, arg, "--out-dir", &args.out_dir)) {
        args.ok = false;
        args.error = "--out-dir requires a path";
        return args;
      }
    } else {
      args.ok = false;
      args.error = "unknown argument: " + arg;
      return args;
    }
  }
  // A sweep file may name the scenario itself; everything else needs --scenario.
  if (!args.help && !args.list && args.scenario.empty() && args.sweep_file.empty()) {
    args.ok = false;
    args.error = "one of --list or --scenario NAME is required";
  }
  // Sweeps already surface per-phase counts in the aggregate (profiled builds)
  // and throughput in the floors file; the interactive summary is single-run.
  if (args.ok && args.profile && args.sweep_mode()) {
    args.ok = false;
    args.error = "--profile applies to single runs only, not sweep mode";
  }
  return args;
}

void WriteReportJson(std::ostream& os, const ScenarioReport& report,
                     const ScenarioOptions& options, const PhaseProfiler* profile) {
  JsonWriter json(os);
  json.BeginObject();
  json.Field("schema", "bullet-bench-v3");
  json.Field("scenario", report.scenario());
  json.Field("repro_scale", GetReproScale().file_scale);

  // The overrides as requested on the command line. Scenarios with fixed setups
  // (e.g. fig12's 8-node topology, fig15's delta bundle) may ignore overrides that
  // do not apply to them, so this records the request, not a guarantee. Emission
  // order is the option table's row order; rows without a json_key (--loss) are
  // never echoed — committed baselines pin both properties.
  json.Key("requested_options").BeginObject();
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    if (def.echo != nullptr) {
      def.echo(options, &json);
    }
  }
  json.EndObject();

  json.Key("scalars").BeginObject();
  for (const auto& [key, value] : report.scalars()) {
    json.Field(key, value);
  }
  json.EndObject();

  json.Key("series").BeginArray();
  for (const SeriesReport& s : report.series()) {
    json.BeginObject();
    json.Field("name", s.name);
    json.Field("count", static_cast<int64_t>(s.samples.size()));
    json.Field("p05_s", Percentile(s.samples, 0.05));
    json.Field("p50_s", Percentile(s.samples, 0.50));
    json.Field("p90_s", Percentile(s.samples, 0.90));
    json.Field("max_s", Percentile(s.samples, 1.0));
    json.Key("metrics").BeginObject();
    for (const auto& [key, value] : s.metrics) {
      json.Field(key, value);
    }
    json.EndObject();
    json.Key("samples").BeginArray();
    for (const double v : s.samples) {
      json.Number(v);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  // Per-phase {count, ns} totals, present only when a profiled build recorded
  // something. Counts are deterministic; ns is wall-clock and allowed here
  // because per-run documents are never diffed for byte identity.
  if (profile != nullptr && profile->total_count() > 0) {
    json.Key("profile").BeginObject();
    for (int p = 0; p < kProfilePhaseCount; ++p) {
      const ProfilePhase phase = static_cast<ProfilePhase>(p);
      const PhaseProfiler::PhaseTotals& t = profile->totals(phase);
      json.Key(ProfilePhaseName(phase)).BeginObject();
      json.Field("count", static_cast<int64_t>(t.count));
      json.Field("ns", static_cast<int64_t>(t.ns));
      json.EndObject();
    }
    json.EndObject();
  }

  json.EndObject();
  os << "\n";
}

void PrintProfileSummary(std::ostream& os, const RunCounters& counters,
                         const PhaseProfiler& profile, double wall_sec) {
  os << "### profile\n";
  const double denom = wall_sec > 1e-9 ? wall_sec : 1e-9;
  os << "wall_sec            = " << wall_sec << "\n";
  os << "events_executed     = " << counters.events_executed << "  ("
     << static_cast<uint64_t>(static_cast<double>(counters.events_executed) / denom)
     << " events/s)\n";
  os << "allocator_epochs    = " << counters.allocator_epochs << "\n";
  os << "sim_bytes_sent      = " << counters.sim_bytes_sent << "  ("
     << static_cast<uint64_t>(static_cast<double>(counters.sim_bytes_sent) / denom)
     << " bytes/s)\n";
  // Peak RSS is machine/allocator-dependent, so it is informational output
  // only — it must never land in a BENCH json (those stay byte-identical
  // across machines; the gated memory telemetry is the deterministic byte
  // counters instead). Linux-only: VmHWM from /proc/self/status.
  if (std::ifstream status{"/proc/self/status"}; status) {
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        os << "peak_rss            =" << line.substr(6) << "  (informational)\n";
        break;
      }
    }
  }
  if (!PhaseProfiler::kCompiledIn) {
    os << "(per-phase timings unavailable: rebuild with -DBULLET_PROFILE=ON)\n";
    return;
  }
  os << "\nphase               count          total_ms   avg_ns\n";
  for (int p = 0; p < kProfilePhaseCount; ++p) {
    const ProfilePhase phase = static_cast<ProfilePhase>(p);
    const PhaseProfiler::PhaseTotals& t = profile.totals(phase);
    std::ostringstream name;
    name << ProfilePhaseName(phase);
    os << name.str() << std::string(name.str().size() < 20 ? 20 - name.str().size() : 1, ' ');
    std::ostringstream count;
    count << t.count;
    os << count.str() << std::string(count.str().size() < 15 ? 15 - count.str().size() : 1, ' ');
    std::ostringstream total;
    total << static_cast<double>(t.ns) / 1e6;
    os << total.str() << std::string(total.str().size() < 11 ? 11 - total.str().size() : 1, ' ');
    os << (t.count > 0 ? t.ns / t.count : 0) << "\n";
  }
  os << "(timers are inclusive: e.g. protocol_logic runs inside event_dispatch)\n";
}

void PrintScenarioList(std::ostream& os, const ScenarioRegistry& registry) {
  for (const ScenarioRegistry::Entry* entry : registry.List()) {
    os << entry->name << "\t" << entry->description << "\n";
  }
}

void PrintRunnerUsage(std::ostream& os) {
  os << "bullet_run — registry-driven scenario runner for the Bullet' reproduction\n"
        "\n"
        "usage:\n"
        "  bullet_run --list\n"
        "  bullet_run --scenario NAME [overrides]\n"
        "  bullet_run --scenario NAME --sweep key=v1,v2 [--sweep ...] [--repeats R]\n"
        "  bullet_run --sweep-file PATH [overrides]\n"
        "\n"
        "overrides (defaults come from the scenario; fixed-setup scenarios ignore\n"
        "overrides that do not apply, see bench/*.cc):\n"
        "  --nodes N          number of participants\n"
        "  --file-mb F        transferred file size in MB (pre-scaled scenarios ignore\n"
        "                     REPRO_SCALE when this is set)\n"
        "  --seed S           simulation seed (sweeps: base seed for stream derivation)\n"
        "  --block-bytes B    block size in bytes\n"
        "  --deadline-sec D   simulated-time deadline in seconds, at most 1e9\n"
        "  --loss L           per-link loss rates become uniform in [0, L];\n"
        "                     fixed-topology scenarios (fig12, fig15, fig16) keep\n"
        "                     their loss-free links and ignore it\n"
        "  --topology T       mesh | transit-stub (routed sparse graph with shared\n"
        "                     interior links; fixed-topology scenarios ignore it)\n"
        "  --system S         one of the four systems (bittorrent, bullet,\n"
        "                     bullet-prime, splitstream); fixed-roster comparison\n"
        "                     scenarios ignore it\n"
        "  --join-fraction F  fraction of receivers joining late in staggered-join\n"
        "                     scenarios (fig18_flash_crowd, default 0.8;\n"
        "                     fig24_megaswarm, default 0.75); others ignore it\n"
        "  --lifetime-pareto-alpha A\n"
        "                     Pareto tail index for lifetime-churn scenarios\n"
        "                     (fig21_churn_lifetimes); others ignore it\n"
        "  --churn-model M    none | leaf | stub | gateway — churn model for\n"
        "                     scenarios that honor it (fig22_correlated_failures)\n"
        "  --stream-bitrate-mbps R\n"
        "                     playback bitrate in Mb/s (default 2). Streaming\n"
        "                     scenarios (fig23_streaming_deadlines) stream at it;\n"
        "                     on the others either stream flag turns every bulk\n"
        "                     session into a streaming one, except that bullet\n"
        "                     (which has no streaming mode) stays bulk and fig15\n"
        "                     ignores both\n"
        "  --stream-window-blocks W\n"
        "                     sliding request-window size in blocks ahead of the\n"
        "                     playhead (default 64); applies like\n"
        "                     --stream-bitrate-mbps\n"
        "  --out PATH         metrics JSON path (default BENCH_<scenario>.json; sweeps:\n"
        "                     aggregate path, default BENCH_sweep_<name>.json)\n"
        "  --quiet            suppress the summary table / CDF dump on stdout\n"
        "  --profile          print run counters and, in -DBULLET_PROFILE=ON builds,\n"
        "                     the per-phase count/timing table (single runs only;\n"
        "                     see docs/PERFORMANCE.md)\n"
        "\n"
        "sweep mode (runs scenario × cartesian grid × repeats on a worker pool;\n"
        "aggregate JSON is byte-identical for a given spec regardless of --jobs;\n"
        "also writes BENCH_sweep_<name>_floors.json with measured events/sec and\n"
        "sim-bytes/sec per grid point for the CI throughput-floor gate):\n"
        "  --sweep key=v1,..  one grid axis (nodes, file-mb, block-bytes,\n"
        "                     deadline-sec, loss, join-fraction,\n"
        "                     lifetime-pareto-alpha, churn-model,\n"
        "                     stream-bitrate-mbps, stream-window-blocks); each\n"
        "                     value takes the syntax and range of the key's\n"
        "                     flag; repeat the flag for more axes\n"
        "  --sweep-file PATH  spec file (scenario/name/repeats/seed/set/sweep lines);\n"
        "                     command-line flags override file directives\n"
        "  --repeats R        runs per grid point (default 1)\n"
        "  --jobs J           worker threads (default 0 = hardware concurrency)\n"
        "  --sweep-name TAG   output tag (default scenario name)\n"
        "  --out-dir DIR      directory for sweep JSON artifacts (default .)\n"
        "\n"
        "REPRO_SCALE=ci|full scales paper file sizes (ci: 20%, default).\n";
}

namespace {

// Layers the sweep-related CLI flags over whatever the sweep file provided.
bool BuildSweepSpec(const RunnerArgs& args, SweepSpec* spec, std::string* error) {
  if (!args.sweep_file.empty()) {
    std::ifstream in(args.sweep_file);
    if (!in) {
      *error = "cannot read sweep file " + args.sweep_file;
      return false;
    }
    std::string parse_error;
    if (!ParseSweepFile(in, spec, &parse_error)) {
      *error = args.sweep_file + ": " + parse_error;
      return false;
    }
  }
  if (!args.scenario.empty()) {
    spec->scenario = args.scenario;
  }
  if (spec->scenario.empty()) {
    *error = "sweep names no scenario (use --scenario or a 'scenario' line)";
    return false;
  }
  if (args.sweep_name) {
    spec->name = *args.sweep_name;
  }
  if (args.repeats) {
    spec->repeats = *args.repeats;
  }
  for (const SweepAxis& axis : args.sweep_axes) {
    spec->axes.push_back(axis);
  }
  // Catches duplicates both among --sweep flags and between flags and file axes.
  std::string duplicate;
  if (FindDuplicateAxisKey(spec->axes, &duplicate)) {
    *error = "duplicate sweep axis '" + duplicate + "'";
    return false;
  }
  // Fixed CLI overrides become the base point: each option-table flag replays
  // through its row's parse hook (ParseRunnerArgs already validated it), so
  // every option reaches the runs and overrides the file's `set` lines. The
  // seed instead becomes the stream-derivation base; each run gets its own.
  for (const auto& [def, text] : args.option_flags) {
    std::string unused;
    def->parse(text, &spec->base, &unused);
  }
  if (spec->base.seed) {
    spec->base_seed = *spec->base.seed;
    spec->base.seed.reset();
  }
  return true;
}

int RunSweepMode(const RunnerArgs& args, const ScenarioRegistry& registry, std::ostream& out,
                 std::ostream& err) {
  SweepSpec spec;
  std::string error;
  if (!BuildSweepSpec(args, &spec, &error)) {
    err << "bullet_run: " << error << "\n";
    return 2;
  }
  if (registry.Find(spec.scenario) == nullptr) {
    err << "bullet_run: unknown scenario '" << spec.scenario << "'; --list shows all "
        << registry.size() << "\n";
    return 2;
  }
  const SweepRunOutcome outcome = RunSweep(spec, registry, args.jobs);
  if (!outcome.ok) {
    err << "bullet_run: sweep failed: " << outcome.error << "\n";
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    err << "bullet_run: cannot create " << args.out_dir << ": " << ec.message() << "\n";
    return 1;
  }
  const auto write_json = [&err](const std::string& path, const auto& emit) {
    std::ofstream file(path);
    if (file) {
      emit(file);
      file.close();
    }
    if (!file) {
      err << "bullet_run: failed writing " << path << "\n";
      return false;
    }
    return true;
  };

  // Per-run v3 reports first, then the v3 aggregate the CI gate diffs, then
  // the machine-dependent floors companion the throughput gate consumes.
  const std::string tag = spec.OutputName();
  for (const ScenarioContext& ctx : outcome.runs) {
    const std::string path = args.out_dir + "/BENCH_sweep_" + tag + "_p" +
                             std::to_string(ctx.point.point_index) + "_r" +
                             std::to_string(ctx.point.repeat) + ".json";
    if (!write_json(path, [&ctx](std::ostream& os) {
          WriteReportJson(os, *ctx.report, ctx.point.options, &ctx.profile);
        })) {
      return 1;
    }
  }
  const std::string aggregate_path =
      args.out_path.empty() ? args.out_dir + "/BENCH_sweep_" + tag + ".json" : args.out_path;
  if (!write_json(aggregate_path,
                  [&outcome](std::ostream& os) { WriteSweepJson(os, outcome); })) {
    return 1;
  }
  const std::string floors_path = args.out_dir + "/BENCH_sweep_" + tag + "_floors.json";
  if (!write_json(floors_path,
                  [&outcome](std::ostream& os) { WriteSweepFloorsJson(os, outcome); })) {
    return 1;
  }
  // Memory-ceilings companion, only for sweeps whose scenario reports the
  // deterministic memory-byte scalars (fig24_megaswarm); the CI memory gate
  // diffs it against a committed bullet-ceilings-v1 baseline.
  if (SweepHasCeilingMetrics(outcome)) {
    const std::string ceilings_path = args.out_dir + "/BENCH_sweep_" + tag + "_ceilings.json";
    if (!write_json(ceilings_path,
                    [&outcome](std::ostream& os) { WriteSweepCeilingsJson(os, outcome); })) {
      return 1;
    }
  }

  if (!args.quiet) {
    const size_t grid = outcome.runs.size() / static_cast<size_t>(spec.repeats);
    out << "### sweep " << tag << " — scenario " << spec.scenario << ": " << grid
        << " grid points x " << spec.repeats << " repeats = " << outcome.runs.size()
        << " runs on " << outcome.jobs_used << " worker(s) in " << outcome.wall_sec << " s\n";
  }
  out << "wrote " << aggregate_path << "\n";
  return 0;
}

}  // namespace

int RunnerMain(int argc, const char* const* argv, const ScenarioRegistry& registry,
               std::ostream& out, std::ostream& err) {
  const RunnerArgs args = ParseRunnerArgs(argc, argv);
  if (!args.ok) {
    err << "bullet_run: " << args.error << "\n";
    PrintRunnerUsage(err);
    return 2;
  }
  if (args.help) {
    PrintRunnerUsage(out);
    return 0;
  }
  if (args.list) {
    PrintScenarioList(out, registry);
    return 0;
  }
  if (args.sweep_mode()) {
    return RunSweepMode(args, registry, out, err);
  }

  const ScenarioRegistry::Entry* entry = registry.Find(args.scenario);
  if (entry == nullptr) {
    // Usage-class error: exit 2 on stderr, like bad flags, so CI scripts and
    // pipelines can tell "you asked wrong" from "the run failed".
    err << "bullet_run: unknown scenario '" << args.scenario << "'; --list shows all "
        << registry.size() << "\n";
    return 2;
  }
  // Counters always record (they are cheap and deterministic); the profiler
  // records per-phase data only in BULLET_PROFILE builds.
  RunCounters counters;
  PhaseProfiler profiler;
  const auto run_start = std::chrono::steady_clock::now();
  const ScenarioReport report = [&] {
    ScopedRunCounters install_counters(&counters);
    ScopedProfilerInstall install_profiler(&profiler);
    return entry->fn(args.options);
  }();
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();

  const std::string out_path =
      args.out_path.empty() ? "BENCH_" + report.scenario() + ".json" : args.out_path;
  std::ofstream file(out_path);
  if (!file) {
    err << "bullet_run: cannot open " << out_path << " for writing\n";
    return 1;
  }
  WriteReportJson(file, report, args.options, &profiler);
  file.close();
  if (!file) {
    err << "bullet_run: failed writing " << out_path << "\n";
    return 1;
  }

  if (!args.quiet) {
    out << "### " << entry->name << " — " << entry->description << "\n";
    const std::vector<CdfSeries> series = report.AsCdfSeries();
    PrintSummaryTable(out, series);
    if (!report.scalars().empty()) {
      out << "\n### scalars\n";
      for (const auto& [key, value] : report.scalars()) {
        out << key << " = " << value << "\n";
      }
    }
    out << "\n### CDF series (fraction, seconds)\n";
    PrintCdf(out, series, 20);
  }
  if (args.profile) {
    PrintProfileSummary(out, counters, profiler, wall_sec);
  }
  out << "wrote " << out_path << "\n";
  return 0;
}

int RunnerMain(int argc, const char* const* argv) {
  return RunnerMain(argc, argv, ScenarioRegistry::Global(), std::cout, std::cerr);
}

}  // namespace bullet
