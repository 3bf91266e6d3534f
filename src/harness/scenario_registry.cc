#include "src/harness/scenario_registry.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/logging.h"
#include "src/harness/flag_parse.h"
#include "src/harness/json_writer.h"
#include "src/harness/workload.h"
#include "src/overlay/protocol_registry.h"

namespace bullet {
namespace {

// Simulated time is int64 microseconds (SecToSim); 1e9 s (~32 years) keeps
// the conversion far inside its range.
bool IsDeadlineSec(double v) { return v > 0.0 && v <= 1e9; }

bool IsChurnModelName(const std::string& text) {
  return text == "none" || text == "leaf" || text == "stub" || text == "gateway";
}

}  // namespace

const std::vector<ScenarioOptionDef>& ScenarioOptionTable() {
  // Row order is the requested_options emission order; committed BENCH
  // baselines pin it, so new options go at the end (after the never-echoed
  // --loss row, which keeps its historical position out of the echo entirely).
  static const std::vector<ScenarioOptionDef>* table = new std::vector<ScenarioOptionDef>{
      {"--nodes", "nodes", "nodes", ScenarioOptionDef::Kind::kNumber, /*sweepable=*/true,
       "--nodes requires an integer in [2, 1000000]",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         int64_t v = 0;
         if (!ParseStrictInt64(text, &v) || v < 2 || v > 1000000) {
           return false;
         }
         opts->nodes = static_cast<int>(v);
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.nodes) {
           json->Field("nodes", *opts.nodes);
         }
       }},
      {"--file-mb", "file-mb", "file_mb", ScenarioOptionDef::Kind::kNumber, /*sweepable=*/true,
       "--file-mb requires a positive number",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         double v = 0.0;
         if (!ParseStrictDouble(text, &v) || v <= 0.0) {
           return false;
         }
         opts->file_mb = v;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.file_mb) {
           json->Field("file_mb", *opts.file_mb);
         }
       }},
      {"--seed", "seed", "seed", ScenarioOptionDef::Kind::kNumber, /*sweepable=*/false,
       "--seed requires a non-negative integer",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         uint64_t v = 0;
         if (!ParseStrictUint64(text, &v)) {
           return false;
         }
         opts->seed = v;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.seed) {
           json->Field("seed", *opts.seed);
         }
       }},
      {"--block-bytes", "block-bytes", "block_bytes", ScenarioOptionDef::Kind::kNumber,
       /*sweepable=*/true, "--block-bytes requires an integer >= 512",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         int64_t v = 0;
         if (!ParseStrictInt64(text, &v) || v < 512) {
           return false;
         }
         opts->block_bytes = v;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.block_bytes) {
           json->Field("block_bytes", *opts.block_bytes);
         }
       }},
      {"--deadline-sec", "deadline-sec", "deadline_sec", ScenarioOptionDef::Kind::kNumber,
       /*sweepable=*/true, "--deadline-sec requires a number in (0, 1e9]",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         double v = 0.0;
         if (!ParseStrictDouble(text, &v) || !IsDeadlineSec(v)) {
           return false;
         }
         opts->deadline_sec = v;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.deadline_sec) {
           json->Field("deadline_sec", *opts.deadline_sec);
         }
       }},
      {"--topology", "topology", "topology", ScenarioOptionDef::Kind::kString,
       /*sweepable=*/false, "--topology requires 'mesh' or 'transit-stub'",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         ScenarioConfig::Topo topo;
         if (!ParseTopologyName(text, &topo)) {
           return false;
         }
         opts->topology = text;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.topology) {
           json->Field("topology", *opts.topology);
         }
       }},
      {"--system", "system", "system", ScenarioOptionDef::Kind::kString, /*sweepable=*/false,
       "--system requires a registered protocol",
       [](const std::string& text, ScenarioOptions* opts, std::string* error) {
         EnsureBuiltinProtocolsRegistered();
         if (ProtocolRegistry::Global().Find(text) == nullptr) {
           std::string known;
           for (const ProtocolRegistry::Entry* entry : ProtocolRegistry::Global().List()) {
             known += known.empty() ? entry->key : ", " + entry->key;
           }
           *error = "--system requires a registered protocol (" + known + ")";
           return false;
         }
         opts->system = text;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.system) {
           json->Field("system", *opts.system);
         }
       }},
      {"--join-fraction", "join-fraction", "join_fraction", ScenarioOptionDef::Kind::kNumber,
       /*sweepable=*/true, "--join-fraction requires a number in [0, 1]",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         double v = 0.0;
         if (!ParseStrictDouble(text, &v) || v < 0.0 || v > 1.0) {
           return false;
         }
         opts->join_fraction = v;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.join_fraction) {
           json->Field("join_fraction", *opts.join_fraction);
         }
       }},
      {"--loss", "loss", nullptr, ScenarioOptionDef::Kind::kNumber, /*sweepable=*/true,
       "--loss requires a number in [0, 1]",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         double v = 0.0;
         if (!ParseStrictDouble(text, &v) || v < 0.0 || v > 1.0) {
           return false;
         }
         opts->loss = v;
         return true;
       },
       nullptr},
      {"--lifetime-pareto-alpha", "lifetime-pareto-alpha", "lifetime_pareto_alpha",
       ScenarioOptionDef::Kind::kNumber, /*sweepable=*/true,
       "--lifetime-pareto-alpha requires a positive number",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         double v = 0.0;
         if (!ParseStrictDouble(text, &v) || v <= 0.0) {
           return false;
         }
         opts->lifetime_pareto_alpha = v;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.lifetime_pareto_alpha) {
           json->Field("lifetime_pareto_alpha", *opts.lifetime_pareto_alpha);
         }
       }},
      {"--churn-model", "churn-model", "churn_model", ScenarioOptionDef::Kind::kString,
       /*sweepable=*/true, "--churn-model requires one of none, leaf, stub, gateway",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         if (!IsChurnModelName(text)) {
           return false;
         }
         opts->churn_model = text;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.churn_model) {
           json->Field("churn_model", *opts.churn_model);
         }
       }},
      {"--stream-bitrate-mbps", "stream-bitrate-mbps", "stream_bitrate_mbps",
       ScenarioOptionDef::Kind::kNumber, /*sweepable=*/true,
       "--stream-bitrate-mbps requires a positive number",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         double v = 0.0;
         if (!ParseStrictDouble(text, &v) || v <= 0.0) {
           return false;
         }
         opts->stream_bitrate_mbps = v;
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.stream_bitrate_mbps) {
           json->Field("stream_bitrate_mbps", *opts.stream_bitrate_mbps);
         }
       }},
      {"--stream-window-blocks", "stream-window-blocks", "stream_window_blocks",
       ScenarioOptionDef::Kind::kNumber, /*sweepable=*/true,
       "--stream-window-blocks requires a positive integer",
       [](const std::string& text, ScenarioOptions* opts, std::string*) {
         int64_t v = 0;
         if (!ParseStrictInt64(text, &v) || v < 1 || v > 1000000) {
           return false;
         }
         opts->stream_window_blocks = static_cast<int>(v);
         return true;
       },
       [](const ScenarioOptions& opts, JsonWriter* json) {
         if (opts.stream_window_blocks) {
           json->Field("stream_window_blocks", *opts.stream_window_blocks);
         }
       }},
  };
  return *table;
}

const ScenarioOptionDef* FindScenarioOptionByKey(const std::string& key) {
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    if (key == def.key) {
      return &def;
    }
  }
  return nullptr;
}

std::string SweepableOptionKeys() {
  std::string keys;
  for (const ScenarioOptionDef& def : ScenarioOptionTable()) {
    if (def.sweepable) {
      keys += keys.empty() ? def.key : std::string(", ") + def.key;
    }
  }
  return keys;
}

void ApplyScenarioOptions(const ScenarioOptions& opts, ScenarioConfig* cfg) {
  cfg->num_nodes = opts.nodes.value_or(cfg->num_nodes);
  cfg->file_mb = opts.file_mb.value_or(cfg->file_mb);
  cfg->seed = opts.seed.value_or(cfg->seed);
  cfg->block_bytes = opts.block_bytes.value_or(cfg->block_bytes);
  if (opts.deadline_sec) {
    cfg->deadline = SecToSim(*opts.deadline_sec);
  }
  if (opts.topology) {
    ParseTopologyName(*opts.topology, &cfg->topo);  // the row's parse accepted it
  }
  if (opts.loss) {
    cfg->loss_min = 0.0;
    cfg->loss_max = *opts.loss;
  }
  // Either stream flag makes a StreamingSpec; the other keeps its default.
  if (opts.stream_bitrate_mbps || opts.stream_window_blocks) {
    StreamingSpec stream;
    stream.bitrate_mbps = opts.stream_bitrate_mbps.value_or(stream.bitrate_mbps);
    stream.window_blocks = opts.stream_window_blocks.value_or(stream.window_blocks);
    cfg->streaming = stream;
  }
}

void ScenarioReport::AddCompletion(const WorkloadResult& run) {
  for (const SessionResult& session : run.sessions) {
    SeriesReport& s = AddSeries(session.name, session.completion_sec);
    s.metrics.emplace_back("dup_pct", session.duplicate_fraction * 100.0);
    s.metrics.emplace_back("ctrl_pct", session.control_overhead * 100.0);
    s.metrics.emplace_back("completed", static_cast<double>(session.completed));
    s.metrics.emplace_back("receivers", static_cast<double>(session.receivers));
    // Deterministic run counters (whole-network totals for the run that
    // produced this series; multi-session runs repeat them on each session's
    // series). bench_check normalizes these by wall time for the
    // throughput-floor gate.
    s.metrics.emplace_back("net_events_executed", static_cast<double>(run.events_executed));
    s.metrics.emplace_back("net_allocator_epochs", static_cast<double>(run.allocator_epochs));
    s.metrics.emplace_back("net_sim_bytes_sent", static_cast<double>(run.sim_bytes_sent));
  }
}

void ScenarioReport::AddCompletion(const std::string& name, const WorkloadResult& run) {
  BULLET_CHECK(run.sessions.size() == 1 && "a named completion series needs a one-session run");
  AddCompletion(run);
  series_.back().name = name;
}

SeriesReport& ScenarioReport::AddSeries(const std::string& name, std::vector<double> samples) {
  series_.push_back(SeriesReport{name, std::move(samples), {}});
  return series_.back();
}

void ScenarioReport::AddScalar(const std::string& key, double value) {
  scalars_.emplace_back(key, value);
}

std::vector<CdfSeries> ScenarioReport::AsCdfSeries() const {
  std::vector<CdfSeries> out;
  out.reserve(series_.size());
  for (const SeriesReport& s : series_) {
    out.push_back(CdfSeries{s.name, s.samples});
  }
  return out;
}

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = new ScenarioRegistry();
  return *registry;
}

bool ScenarioRegistry::Register(const std::string& name, const std::string& description,
                                RunFn fn) {
  return entries_.emplace(name, Entry{name, description, std::move(fn)}).second;
}

const ScenarioRegistry::Entry* ScenarioRegistry::Find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const ScenarioRegistry::Entry*> ScenarioRegistry::List() const {
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(&entry);
  }
  return out;
}

namespace harness_internal {

ScenarioRegistrar::ScenarioRegistrar(const char* name, const char* description,
                                     ScenarioRegistry::RunFn fn) {
  if (!ScenarioRegistry::Global().Register(name, description, std::move(fn))) {
    std::fprintf(stderr, "duplicate scenario registration: %s\n", name);
    std::abort();
  }
}

}  // namespace harness_internal

}  // namespace bullet
