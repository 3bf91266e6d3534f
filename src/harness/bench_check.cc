#include "src/harness/bench_check.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

namespace bullet {
namespace {

// The aggregate schema the band gate reads, on both sides.
constexpr char kAggregateSchema[] = "bullet-bench-v3";
constexpr char kFloorsSchema[] = "bullet-floors-v1";
constexpr char kCeilingsSchema[] = "bullet-ceilings-v1";

// Canonical identity of a grid point: its params object rendered "k=v,k=v".
// JsonValue objects are sorted maps, so equal param sets render identically no
// matter what order the axes were declared in.
std::string PointKey(const JsonValue& point) {
  const JsonValue* params = point.Find("params");
  std::string key;
  if (params == nullptr || !params->is_object()) {
    return key;
  }
  for (const auto& [name, value] : params->object()) {
    if (!key.empty()) {
      key += ',';
    }
    key += name + '=';
    if (value.is_string()) {
      // String axes (e.g. churn-model) key on the literal label.
      key += value.str();
    } else {
      std::ostringstream os;
      // max_digits10 keeps keys injective: default 6-digit precision would
      // alias points whose values differ only past the sixth significant digit.
      os << std::setprecision(std::numeric_limits<double>::max_digits10) << value.number();
      key += os.str();
    }
  }
  return key;
}

bool CheckSchema(const JsonValue& doc, const char* which, const char* expected_schema,
                 std::ostream& log) {
  if (!doc.is_object()) {
    log << "bench_check: " << which << " is not a JSON object\n";
    return false;
  }
  const std::string schema = doc.StringOr("schema", "");
  if (schema != expected_schema) {
    log << "bench_check: " << which << " has schema '" << schema << "', expected '"
        << expected_schema << "'\n";
    return false;
  }
  const JsonValue* points = doc.Find("points");
  if (points == nullptr || !points->is_array()) {
    log << "bench_check: " << which << " has no points array\n";
    return false;
  }
  return true;
}

// Scenario / seed / repeats / repro_scale identity shared by both modes.
bool CheckComparable(const JsonValue& baseline, const JsonValue& current, std::ostream& log) {
  const std::string base_scenario = baseline.StringOr("scenario", "");
  const std::string cur_scenario = current.StringOr("scenario", "");
  if (base_scenario != cur_scenario) {
    log << "bench_check: scenario mismatch: baseline '" << base_scenario << "' vs current '"
        << cur_scenario << "'\n";
    return false;
  }
  // Sweeps with different seeds, repeat counts or REPRO_SCALE are measuring
  // different things; diagnose that as incomparable input rather than flooding
  // the log with tolerance failures.
  for (const char* field : {"base_seed", "repeats", "repro_scale"}) {
    const JsonValue* base_v = baseline.Find(field);
    const JsonValue* cur_v = current.Find(field);
    if (base_v != nullptr && cur_v != nullptr && base_v->is_number() && cur_v->is_number() &&
        base_v->number() != cur_v->number()) {
      log << "bench_check: " << field << " mismatch: baseline " << base_v->number()
          << " vs current " << cur_v->number() << " — regenerate the baseline or fix the "
          << "sweep invocation\n";
      return false;
    }
  }
  return true;
}

// A one-sided gate: the floors gate (current must meet or beat each floor)
// or the ceilings gate (current must stay at or below each ceiling).
struct OneSidedGate {
  const char* schema;
  const char* bounds;  // the per-point object, e.g. "floors"
  const char* bound;   // one of its values, e.g. "floor"
  const char* what;    // summary noun, e.g. "throughput floors"
  bool upper;          // true: values above the bound fail; false: below
};

constexpr OneSidedGate kFloorsGate = {kFloorsSchema, "floors", "floor", "throughput floors",
                                      false};
constexpr OneSidedGate kCeilingsGate = {kCeilingsSchema, "ceilings", "ceiling",
                                        "memory ceilings", true};

// Tolerance-free by design: the committed bound itself embeds any margin.
int CompareOneSidedDocs(const OneSidedGate& gate, const JsonValue& baseline,
                        const JsonValue& current, std::ostream& log) {
  if (!CheckSchema(baseline, "baseline", gate.schema, log) ||
      !CheckSchema(current, "current", gate.schema, log)) {
    return kBenchCheckBadInput;
  }
  if (!CheckComparable(baseline, current, log)) {
    return kBenchCheckBadInput;
  }

  std::map<std::string, const JsonValue*> current_points;
  for (const JsonValue& point : current.Find("points")->array()) {
    current_points[PointKey(point)] = &point;
  }

  const char* direction = gate.upper ? "above" : "below";
  int checked = 0;
  int failed = 0;
  for (const JsonValue& base_point : baseline.Find("points")->array()) {
    const std::string key = PointKey(base_point);
    const auto cur_it = current_points.find(key);
    if (cur_it == current_points.end()) {
      log << "FAIL point {" << key << "}: missing from current " << gate.bounds << "\n";
      ++failed;
      continue;
    }
    const JsonValue* base_bounds = base_point.Find(gate.bounds);
    if (base_bounds == nullptr || !base_bounds->is_object()) {
      log << "bench_check: baseline point {" << key << "} has no " << gate.bounds
          << " object\n";
      return kBenchCheckBadInput;
    }
    const JsonValue* cur_bounds = cur_it->second->Find(gate.bounds);
    for (const auto& [name, bound] : base_bounds->object()) {
      if (!bound.is_number()) {
        continue;
      }
      ++checked;
      const JsonValue* cur_v = cur_bounds != nullptr ? cur_bounds->Find(name) : nullptr;
      if (cur_v == nullptr || !cur_v->is_number()) {
        log << "FAIL point {" << key << "} " << name << ": metric missing from current "
            << gate.bounds << "\n";
        ++failed;
        continue;
      }
      if (gate.upper ? cur_v->number() > bound.number() : cur_v->number() < bound.number()) {
        log << "FAIL point {" << key << "} " << name << ": current " << cur_v->number() << " "
            << direction << " " << gate.bound << " " << bound.number() << "\n";
        ++failed;
      }
    }
  }

  log << "bench_check: " << checked << " " << gate.what << " checked, " << failed << " "
      << direction << " " << gate.bound << "\n";
  return failed == 0 ? kBenchCheckOk : kBenchCheckRegression;
}

}  // namespace

int CompareSweepDocs(const JsonValue& baseline, const JsonValue& current,
                     const BenchCheckOptions& opts, std::ostream& log) {
  // A floors baseline selects the one-sided throughput gate; a ceilings
  // baseline the one-sided memory gate.
  if (baseline.is_object() && baseline.StringOr("schema", "") == kFloorsSchema) {
    return CompareOneSidedDocs(kFloorsGate, baseline, current, log);
  }
  if (baseline.is_object() && baseline.StringOr("schema", "") == kCeilingsSchema) {
    return CompareOneSidedDocs(kCeilingsGate, baseline, current, log);
  }
  if (!CheckSchema(baseline, "baseline", kAggregateSchema, log) ||
      !CheckSchema(current, "current", kAggregateSchema, log)) {
    return kBenchCheckBadInput;
  }
  if (!CheckComparable(baseline, current, log)) {
    return kBenchCheckBadInput;
  }

  std::map<std::string, const JsonValue*> current_points;
  for (const JsonValue& point : current.Find("points")->array()) {
    current_points[PointKey(point)] = &point;
  }

  int checked = 0;
  int failed = 0;
  for (const JsonValue& base_point : baseline.Find("points")->array()) {
    const std::string key = PointKey(base_point);
    const auto cur_it = current_points.find(key);
    if (cur_it == current_points.end()) {
      log << "FAIL point {" << key << "}: missing from current sweep\n";
      ++failed;
      continue;
    }
    const JsonValue* base_metrics = base_point.Find("metrics");
    const JsonValue* cur_metrics = cur_it->second->Find("metrics");
    if (base_metrics == nullptr || !base_metrics->is_object()) {
      log << "bench_check: baseline point {" << key << "} has no metrics object\n";
      return kBenchCheckBadInput;
    }
    for (const auto& [name, band] : base_metrics->object()) {
      const JsonValue* base_median = band.Find("median");
      if (base_median == nullptr || !base_median->is_number()) {
        continue;  // non-numeric medians (e.g. null from a non-finite value) are not gated
      }
      ++checked;
      const JsonValue* cur_band = cur_metrics != nullptr ? cur_metrics->Find(name) : nullptr;
      const JsonValue* cur_median = cur_band != nullptr ? cur_band->Find("median") : nullptr;
      if (cur_median == nullptr || !cur_median->is_number()) {
        log << "FAIL point {" << key << "} " << name << ": metric missing from current sweep\n";
        ++failed;
        continue;
      }
      const double base_v = base_median->number();
      const double cur_v = cur_median->number();
      const double band_width = std::max(opts.abs_tol, opts.rel_tol * std::fabs(base_v));
      const double diff = std::fabs(cur_v - base_v);
      if (diff > band_width) {
        log << "FAIL point {" << key << "} " << name << ": baseline " << base_v << " current "
            << cur_v << " (|diff| " << diff << " > tol " << band_width << ")\n";
        ++failed;
      }
    }
  }

  log << "bench_check: " << checked << " metric medians checked, " << failed
      << " out of tolerance\n";
  return failed == 0 ? kBenchCheckOk : kBenchCheckRegression;
}

int CompareSweepFiles(const std::string& baseline_path, const std::string& current_path,
                      const BenchCheckOptions& opts, std::ostream& log, std::ostream& err) {
  const auto load = [&err](const std::string& path, JsonValue* out) {
    std::ifstream in(path);
    if (!in) {
      err << "bench_check: cannot read " << path << "\n";
      return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!ParseJson(buffer.str(), out, &error)) {
      err << "bench_check: " << path << ": " << error << "\n";
      return false;
    }
    return true;
  };
  JsonValue baseline;
  JsonValue current;
  if (!load(baseline_path, &baseline) || !load(current_path, &current)) {
    return kBenchCheckBadInput;
  }
  return CompareSweepDocs(baseline, current, opts, log);
}

}  // namespace bullet
