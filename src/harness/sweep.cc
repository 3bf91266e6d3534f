#include "src/harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/harness/flag_parse.h"
#include "src/harness/json_writer.h"

namespace bullet {
namespace {

// Resolves a sweep key against the scenario option table; writes the standard
// unknown-key message (listing the sweepable keys) when it does not resolve.
const ScenarioOptionDef* FindSweepableOption(const std::string& key, std::string* error) {
  const ScenarioOptionDef* def = FindScenarioOptionByKey(key);
  if (def == nullptr || !def->sweepable) {
    *error = "unknown sweep key '" + key + "' (supported: " + SweepableOptionKeys() + ")";
    return nullptr;
  }
  return def;
}

// The number an accepted value of a numeric row denotes (nodes=020 is 20);
// empty for string rows. Sweep documents print it, and duplicates compare it.
std::optional<double> AxisNumber(const ScenarioOptionDef& def, const std::string& text) {
  double v = 0.0;
  if (def.kind == ScenarioOptionDef::Kind::kNumber && ParseStrictDouble(text, &v)) {
    return v;
  }
  return std::nullopt;
}

// An axis value as the sweep documents print it: the number a numeric row's
// value denotes (so nodes=020 prints 20), a string row's text as is.
void WriteAxisValue(const std::string& key, const std::string& text, JsonWriter* json) {
  const ScenarioOptionDef* def = FindScenarioOptionByKey(key);
  const std::optional<double> number =
      def != nullptr ? AxisNumber(*def, text) : std::optional<double>();
  if (number) {
    json->Number(*number);
  } else {
    json->String(text);
  }
}

// The JSON text WriteAxisValue prints for an axis value.
std::string PrintedAxisValue(const std::string& key, const std::string& text) {
  std::ostringstream os;
  JsonWriter json(os);
  WriteAxisValue(key, text, &json);
  return os.str();
}

// Checks an axis as its option row checks the flag: the key names a sweepable
// row and every value passes that row's parse (a failure names the value and
// carries the flag's message). A value that denotes an earlier one, or that
// the sweep documents print alike (deadline-sec=100.00000001,100.00000002 both
// print 100), is an error too: it would run the same grid point twice under
// two point indices (distinct derived seeds), and two points with the same
// params make the aggregate fail bench_check against itself.
bool CheckSweepAxis(const SweepAxis& axis, std::string* error) {
  const ScenarioOptionDef* def = FindSweepableOption(axis.key, error);
  if (def == nullptr) {
    return false;
  }
  if (axis.values.empty()) {
    *error = "sweep axis '" + axis.key + "' has no values";
    return false;
  }
  std::vector<std::string> printed(axis.values.size());
  for (size_t i = 0; i < axis.values.size(); ++i) {
    const std::string& text = axis.values[i];
    ScenarioOptions parsed;
    std::string parse_error;
    if (!def->parse(text, &parsed, &parse_error)) {
      *error = "bad value '" + text + "' for sweep axis '" + axis.key +
               "': " + (parse_error.empty() ? def->flag_error : parse_error);
      return false;
    }
    const std::optional<double> number = AxisNumber(*def, text);
    printed[i] = PrintedAxisValue(axis.key, text);
    for (size_t j = 0; j < i; ++j) {
      if (printed[i] == printed[j] || (number && *number == *AxisNumber(*def, axis.values[j]))) {
        *error = "duplicate value '" + text + "' in sweep axis '" + axis.key + "'";
        return false;
      }
    }
  }
  return true;
}

// Applies one accepted axis value onto *options with its row's parse.
void ApplyAxisValue(const std::string& key, const std::string& text, ScenarioOptions* options) {
  std::string unused;
  FindScenarioOptionByKey(key)->parse(text, options, &unused);
}

}  // namespace

uint64_t DeriveSweepSeed(uint64_t base_seed, int point_index, int repeat) {
  // Mix the three coordinates through SplitMix64 twice so that adjacent indices
  // (and adjacent base seeds) land on decorrelated streams. The +1 offsets keep
  // (point 0, repeat 0) from collapsing onto the raw base seed.
  uint64_t state = base_seed;
  state ^= 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(point_index) + 1);
  state ^= 0xbf58476d1ce4e5b9ull * (static_cast<uint64_t>(repeat) + 1);
  SplitMix64(state);
  return SplitMix64(state);
}

bool ParseSweepAxisSpec(const std::string& text, SweepAxis* axis, std::string* error) {
  const size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
    *error = "sweep axis must look like key=v1,v2,... (got '" + text + "')";
    return false;
  }
  SweepAxis parsed;
  parsed.key = text.substr(0, eq);
  const std::string values = text.substr(eq + 1);
  size_t start = 0;
  while (true) {
    const size_t comma = values.find(',', start);
    const size_t len = comma == std::string::npos ? comma : comma - start;
    parsed.values.push_back(values.substr(start, len));
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  if (!CheckSweepAxis(parsed, error)) {
    return false;
  }
  *axis = std::move(parsed);
  return true;
}

bool ParseSweepFile(std::istream& in, SweepSpec* spec, std::string* error) {
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) {
      continue;  // blank / comment-only line
    }
    std::string rest;
    tokens >> rest;
    std::string extra;
    if (tokens >> extra) {
      *error = "line " + std::to_string(lineno) + ": trailing text after '" + rest + "'";
      return false;
    }
    const auto fail = [&](const std::string& what) {
      *error = "line " + std::to_string(lineno) + ": " + what;
      return false;
    };
    if (directive == "scenario") {
      if (rest.empty()) {
        return fail("scenario needs a name");
      }
      spec->scenario = rest;
    } else if (directive == "name") {
      if (rest.empty()) {
        return fail("name needs a value");
      }
      spec->name = rest;
    } else if (directive == "repeats") {
      // The file form of --repeats, parsed as the flag parses it.
      int64_t v = 0;
      if (!ParseStrictInt64(rest, &v) || v < 1 || v > 10000) {
        return fail("repeats needs an integer in [1, 10000]");
      }
      spec->repeats = static_cast<int>(v);
    } else if (directive == "seed") {
      // Exact 64-bit parse, matching --seed: a double round-trip would corrupt
      // seeds above 2^53 and silently diverge file specs from CLI specs.
      uint64_t v = 0;
      if (!ParseStrictUint64(rest, &v)) {
        return fail("seed needs a non-negative integer");
      }
      spec->base_seed = v;
    } else if (directive == "set") {
      SweepAxis axis;
      std::string sweep_error;
      if (!ParseSweepAxisSpec(rest, &axis, &sweep_error) || axis.values.size() != 1) {
        return fail(sweep_error.empty() ? "set needs exactly one key=value" : sweep_error);
      }
      ApplyAxisValue(axis.key, axis.values[0], &spec->base);
    } else if (directive == "sweep") {
      SweepAxis axis;
      std::string sweep_error;
      if (!ParseSweepAxisSpec(rest, &axis, &sweep_error)) {
        return fail(sweep_error);
      }
      for (const SweepAxis& existing : spec->axes) {
        if (existing.key == axis.key) {
          return fail("duplicate sweep axis '" + axis.key + "'");
        }
      }
      spec->axes.push_back(std::move(axis));
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  return true;
}

bool FindDuplicateAxisKey(const std::vector<SweepAxis>& axes, std::string* key) {
  for (size_t a = 0; a < axes.size(); ++a) {
    for (size_t b = a + 1; b < axes.size(); ++b) {
      if (axes[a].key == axes[b].key) {
        *key = axes[a].key;
        return true;
      }
    }
  }
  return false;
}

std::vector<SweepPoint> ExpandSweepGrid(const SweepSpec& spec) {
  size_t grid = 1;
  for (const SweepAxis& axis : spec.axes) {
    grid *= axis.values.size();
  }
  std::vector<SweepPoint> points;
  points.reserve(grid * static_cast<size_t>(spec.repeats));
  std::vector<size_t> idx(spec.axes.size(), 0);
  for (size_t cell = 0; cell < grid; ++cell) {
    // Decode `cell` into per-axis indices, axis 0 slowest (row-major).
    size_t rem = cell;
    for (size_t a = spec.axes.size(); a-- > 0;) {
      idx[a] = rem % spec.axes[a].values.size();
      rem /= spec.axes[a].values.size();
    }
    for (int r = 0; r < spec.repeats; ++r) {
      SweepPoint p;
      p.point_index = static_cast<int>(cell);
      p.repeat = r;
      p.seed = DeriveSweepSeed(spec.base_seed, p.point_index, r);
      p.options = spec.base;
      for (size_t a = 0; a < spec.axes.size(); ++a) {
        const SweepAxis& axis = spec.axes[a];
        ApplyAxisValue(axis.key, axis.values[idx[a]], &p.options);
        p.params.emplace_back(axis.key, axis.values[idx[a]]);
      }
      p.options.seed = p.seed;
      points.push_back(std::move(p));
    }
  }
  return points;
}

SweepRunOutcome RunSweep(const SweepSpec& spec, const ScenarioRegistry& registry, int jobs) {
  SweepRunOutcome outcome;
  outcome.spec = spec;
  if (spec.scenario.empty()) {
    outcome.error = "sweep has no scenario";
    return outcome;
  }
  const ScenarioRegistry::Entry* entry = registry.Find(spec.scenario);
  if (entry == nullptr) {
    outcome.error = "unknown scenario '" + spec.scenario + "'";
    return outcome;
  }
  if (spec.repeats < 1) {
    outcome.error = "repeats must be >= 1";
    return outcome;
  }
  std::string duplicate;
  if (FindDuplicateAxisKey(spec.axes, &duplicate)) {
    outcome.error = "duplicate sweep axis '" + duplicate + "'";
    return outcome;
  }
  for (const SweepAxis& axis : spec.axes) {
    if (!CheckSweepAxis(axis, &outcome.error)) {
      return outcome;
    }
  }

  std::vector<SweepPoint> points = ExpandSweepGrid(spec);
  outcome.runs.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    outcome.runs[i].point = std::move(points[i]);
  }

  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) {
      jobs = 1;
    }
  }
  jobs = std::min<int>(jobs, static_cast<int>(outcome.runs.size()));
  jobs = std::max(jobs, 1);
  outcome.jobs_used = jobs;

  const auto start = std::chrono::steady_clock::now();
  // Each worker claims runs off a shared counter and writes only into its own
  // claimed ScenarioContext slots, so the result layout (and therefore the
  // aggregate JSON) is independent of scheduling.
  std::atomic<size_t> next{0};
  const auto worker = [&]() {
    for (size_t i = next.fetch_add(1); i < outcome.runs.size(); i = next.fetch_add(1)) {
      ScenarioContext& ctx = outcome.runs[i];
      // Per-run counter/profiler installs: each worker thread observes only the
      // run it is executing (thread-local current pointers), so counters and
      // wall times attribute cleanly no matter how runs are scheduled.
      const auto run_start = std::chrono::steady_clock::now();
      try {
        ScopedRunCounters install_counters(&ctx.counters);
        ScopedProfilerInstall install_profiler(&ctx.profile);
        ctx.report = entry->fn(ctx.point.options);
      } catch (const std::exception& e) {
        ctx.error = e.what();
      } catch (...) {
        ctx.error = "unknown exception";
      }
      ctx.wall_sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  outcome.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  for (const ScenarioContext& ctx : outcome.runs) {
    if (!ctx.error.empty()) {
      outcome.error = "point " + std::to_string(ctx.point.point_index) + " repeat " +
                      std::to_string(ctx.point.repeat) + " failed: " + ctx.error;
      return outcome;
    }
  }
  outcome.ok = true;
  return outcome;
}

std::map<std::string, double> FlattenReportMetrics(const ScenarioReport& report) {
  std::map<std::string, double> flat;
  for (const auto& [key, value] : report.scalars()) {
    flat[key] = value;
  }
  for (const SeriesReport& s : report.series()) {
    std::vector<double> sorted = s.samples;
    std::sort(sorted.begin(), sorted.end());
    flat[s.name + ".count"] = static_cast<double>(sorted.size());
    flat[s.name + ".p05_s"] = PercentileSorted(sorted, 0.05);
    flat[s.name + ".p50_s"] = PercentileSorted(sorted, 0.50);
    flat[s.name + ".p90_s"] = PercentileSorted(sorted, 0.90);
    flat[s.name + ".max_s"] = PercentileSorted(sorted, 1.0);
    for (const auto& [key, value] : s.metrics) {
      flat[s.name + "." + key] = value;
    }
  }
  return flat;
}

namespace {

// Opens a sweep document: the members the aggregate, floors and ceilings
// documents all start with.
void BeginSweepDocument(const char* schema, const SweepSpec& spec, JsonWriter* json) {
  json->BeginObject();
  json->Field("schema", schema);
  json->Field("sweep", spec.OutputName());
  json->Field("scenario", spec.scenario);
  json->Field("base_seed", spec.base_seed);
  json->Field("repeats", static_cast<int64_t>(spec.repeats));
  json->Field("repro_scale", GetReproScale().file_scale);
}

// Opens one point of a sweep document with its point_index and params.
void BeginSweepPoint(const SweepPoint& point, JsonWriter* json) {
  json->BeginObject();
  json->Field("point_index", static_cast<int64_t>(point.point_index));
  json->Key("params").BeginObject();
  for (const auto& [key, text] : point.params) {
    json->Key(key);
    WriteAxisValue(key, text, json);
  }
  json->EndObject();
}

}  // namespace

void WriteSweepJson(std::ostream& os, const SweepRunOutcome& outcome) {
  const SweepSpec& spec = outcome.spec;
  JsonWriter json(os);
  BeginSweepDocument("bullet-bench-v3", spec, &json);

  json.Key("axes").BeginArray();
  for (const SweepAxis& axis : spec.axes) {
    json.BeginObject();
    json.Field("key", axis.key);
    json.Key("values").BeginArray();
    for (const std::string& text : axis.values) {
      WriteAxisValue(axis.key, text, &json);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.Key("points").BeginArray();
  // Runs are grid-major / repeat-minor, so each point's repeats are contiguous.
  for (size_t i = 0; i < outcome.runs.size(); i += static_cast<size_t>(spec.repeats)) {
    BeginSweepPoint(outcome.runs[i].point, &json);
    json.Key("seeds").BeginArray();
    for (int r = 0; r < spec.repeats; ++r) {
      json.Uint(outcome.runs[i + static_cast<size_t>(r)].point.seed);
    }
    json.EndArray();

    // metric name -> one value per repeat (sorted map ⇒ stable emission order).
    std::map<std::string, std::vector<double>> samples;
    for (int r = 0; r < spec.repeats; ++r) {
      const ScenarioContext& ctx = outcome.runs[i + static_cast<size_t>(r)];
      if (!ctx.report) {
        continue;
      }
      for (const auto& [key, value] : FlattenReportMetrics(*ctx.report)) {
        samples[key].push_back(value);
      }
    }
    json.Key("metrics").BeginObject();
    for (auto& [key, values] : samples) {
      std::sort(values.begin(), values.end());
      json.Key(key).BeginObject();
      json.Field("median", PercentileSorted(values, 0.50));
      json.Field("p10", PercentileSorted(values, 0.10));
      json.Field("p90", PercentileSorted(values, 0.90));
      json.EndObject();
    }
    json.EndObject();
    // Median per-phase *counts* across the point's repeats. Counts derive from
    // the seed alone, so this block keeps the aggregate --jobs-invariant;
    // phase nanoseconds are wall-clock data and stay out of this document.
    if (PhaseProfiler::kCompiledIn) {
      json.Key("profile").BeginObject();
      for (int p = 0; p < kProfilePhaseCount; ++p) {
        const ProfilePhase phase = static_cast<ProfilePhase>(p);
        std::vector<double> counts;
        counts.reserve(static_cast<size_t>(spec.repeats));
        for (int r = 0; r < spec.repeats; ++r) {
          counts.push_back(static_cast<double>(
              outcome.runs[i + static_cast<size_t>(r)].profile.totals(phase).count));
        }
        std::sort(counts.begin(), counts.end());
        json.Field(ProfilePhaseName(phase), PercentileSorted(counts, 0.50));
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  os << "\n";
}

namespace {

// What `nproc` prints: the CPUs this process may run on.
int64_t UsableCpuCount() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
#endif
  return static_cast<int64_t>(std::thread::hardware_concurrency());
}

// The first `model name` in /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) {
      continue;
    }
    const size_t colon = line.find(':');
    const size_t begin =
        colon == std::string::npos ? colon : line.find_first_not_of(" \t", colon + 1);
    if (begin != std::string::npos) {
      return line.substr(begin, line.find_last_not_of(" \t\r") + 1 - begin);
    }
  }
  return "unknown";
}

}  // namespace

void WriteSweepFloorsJson(std::ostream& os, const SweepRunOutcome& outcome) {
  const SweepSpec& spec = outcome.spec;
  JsonWriter json(os);
  BeginSweepDocument("bullet-floors-v1", spec, &json);
  // The hardware behind the wall times (bench_check ignores both fields).
  json.Field("nproc", UsableCpuCount());
  json.Field("cpu_model", CpuModel());

  const auto median_of = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return PercentileSorted(v, 0.50);
  };

  json.Key("points").BeginArray();
  for (size_t i = 0; i < outcome.runs.size(); i += static_cast<size_t>(spec.repeats)) {
    BeginSweepPoint(outcome.runs[i].point, &json);

    std::vector<double> wall;
    std::vector<double> events;
    std::vector<double> bytes;
    for (int r = 0; r < spec.repeats; ++r) {
      const ScenarioContext& ctx = outcome.runs[i + static_cast<size_t>(r)];
      wall.push_back(ctx.wall_sec);
      events.push_back(static_cast<double>(ctx.counters.events_executed));
      bytes.push_back(static_cast<double>(ctx.counters.sim_bytes_sent));
    }
    const double wall_median = median_of(wall);
    json.Field("wall_sec_median", wall_median);
    json.Field("events_executed_median", median_of(events));
    json.Field("sim_bytes_sent_median", median_of(bytes));
    // The gated metrics. Division by a tiny wall time would make the floors
    // meaninglessly huge, so sub-millisecond medians are clamped.
    const double denom = wall_median > 1e-3 ? wall_median : 1e-3;
    json.Key("floors").BeginObject();
    json.Field("events_per_wall_sec", median_of(events) / denom);
    json.Field("sim_bytes_per_wall_sec", median_of(bytes) / denom);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  os << "\n";
}

namespace {

// The deterministic memory-byte scalars the ceilings gate understands, in
// emission order. Scenarios opt in by AddScalar-ing them (fig24_megaswarm).
constexpr const char* kCeilingMetrics[] = {"arena_peak_bytes", "path_pool_bytes",
                                           "route_cache_bytes"};

}  // namespace

bool SweepHasCeilingMetrics(const SweepRunOutcome& outcome) {
  for (const ScenarioContext& ctx : outcome.runs) {
    if (!ctx.report) {
      continue;
    }
    for (const auto& [key, value] : ctx.report->scalars()) {
      for (const char* name : kCeilingMetrics) {
        if (key == name) {
          return true;
        }
      }
    }
  }
  return false;
}

void WriteSweepCeilingsJson(std::ostream& os, const SweepRunOutcome& outcome) {
  const SweepSpec& spec = outcome.spec;
  JsonWriter json(os);
  BeginSweepDocument("bullet-ceilings-v1", spec, &json);

  json.Key("points").BeginArray();
  for (size_t i = 0; i < outcome.runs.size(); i += static_cast<size_t>(spec.repeats)) {
    BeginSweepPoint(outcome.runs[i].point, &json);

    json.Key("ceilings").BeginObject();
    for (const char* name : kCeilingMetrics) {
      std::vector<double> values;
      for (int r = 0; r < spec.repeats; ++r) {
        const ScenarioContext& ctx = outcome.runs[i + static_cast<size_t>(r)];
        if (!ctx.report) {
          continue;
        }
        for (const auto& [key, value] : ctx.report->scalars()) {
          if (key == name) {
            values.push_back(value);
          }
        }
      }
      if (!values.empty()) {
        std::sort(values.begin(), values.end());
        json.Field(name, PercentileSorted(values, 0.50));
      }
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  os << "\n";
}

}  // namespace bullet
