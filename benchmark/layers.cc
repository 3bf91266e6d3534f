// bullet_layers: the benchmark's layer driver. It times calls into each
// simulator layer's public API on inputs shaped like one benchmark workload
// (its topology, node count and block count), prints the per-layer metrics as
// one JSON object on stdout, and writes every timed section as a span to a
// Chrome trace-event JSON file on exit (open it in Perfetto or
// chrome://tracing).
//
// usage: bullet_layers --topology mesh|transit-stub --nodes N --blocks B
//                      --seed S --trace PATH [--smoke]
//
// Op counts are fixed by the shape (never by elapsed time), so the spans' op
// counts are identical on every machine; --smoke divides them for a quick
// validation pass. The driver calls only APIs the simulator runs by default:
// the per-pair route store, the exact allocator and the serial event queue.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/session_common.h"
#include "src/core/request_strategy.h"
#include "src/harness/flag_parse.h"
#include "src/harness/json_writer.h"
#include "src/harness/scenarios.h"
#include "src/sim/bandwidth_allocator.h"
#include "src/sim/event_queue.h"
#include "src/sim/tcp_model.h"
#include "src/sim/topology.h"

namespace bullet {
namespace {

using Clock = std::chrono::steady_clock;

// The receiver-side fan-in the allocator instance and the route sample use:
// Bullet' starts every receiver with 10 senders (BulletPrimeConfig).
constexpr int kSendersPerReceiver = 10;
// Sliding request window (StreamingSpec's default) for PickWindowed.
constexpr uint32_t kWindowBlocks = 64;
// RunningDry threshold: an outstanding limit of 5 plus one, as BulletPrime asks.
constexpr size_t kDryThreshold = 6;

struct Shape {
  std::string topology;
  int nodes = 0;
  uint32_t blocks = 0;
  uint64_t seed = 0;
  std::string trace_path;
  bool smoke = false;
};

// Timed sections kept in memory: name, parent span, start/end and op count.
class SpanRecorder {
 public:
  // Opens a span nested in the innermost open one; returns its index.
  int Begin(const std::string& name) {
    spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), Now(), 0, 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  // Closes the innermost open span (which must be `index`) with `ops`
  // operations; returns its duration in nanoseconds.
  int64_t End(int index, uint64_t ops) {
    BULLET_CHECK(!open_.empty() && open_.back() == index);
    open_.pop_back();
    Span& s = spans_[static_cast<size_t>(index)];
    s.end_ns = Now();
    s.ops = ops;
    return s.end_ns - s.start_ns;
  }

  // Chrome trace-event format: one complete ("X") event per span, times in
  // microseconds; the parent name and op count ride in args.
  void WriteChromeTrace(std::ostream& os) const {
    JsonWriter json(os);
    json.BeginObject();
    json.Key("traceEvents").BeginArray();
    for (const Span& s : spans_) {
      json.BeginObject();
      json.Field("name", s.name);
      json.Field("cat", "layer");
      json.Field("ph", "X");
      json.Field("pid", 1);
      json.Field("tid", 1);
      json.Field("ts", static_cast<double>(s.start_ns) / 1e3);
      json.Field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      json.Key("args").BeginObject();
      json.Field("ops", s.ops);
      json.Field("parent",
                 s.parent < 0 ? std::string() : spans_[static_cast<size_t>(s.parent)].name);
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.Field("displayTimeUnit", "ns");
    json.EndObject();
    os << "\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t ops;
  };

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Metrics {
 public:
  void Set(const std::string& name, double value) { values_.emplace_back(name, value); }

  void Write(std::ostream& os) const {
    JsonWriter json(os);
    json.BeginObject();
    json.Key("metrics").BeginObject();
    for (const auto& [name, value] : values_) {
      json.Field(name, value);
    }
    json.EndObject();
    json.EndObject();
    os << "\n";
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// Scales an op count down for --smoke, keeping at least `floor` ops.
uint64_t Ops(const Shape& shape, uint64_t full, uint64_t floor = 1) {
  return std::max<uint64_t>(floor, shape.smoke ? full / 20 : full);
}

// Volatile sink so the timed loops' results are never optimized away.
volatile uint64_t g_sink = 0;

std::unique_ptr<Topology> BuildTopology(const Shape& shape) {
  ScenarioConfig cfg;
  cfg.num_nodes = shape.nodes;
  cfg.seed = shape.seed;
  if (shape.topology == "transit-stub") {
    cfg.topo = ScenarioConfig::Topo::kTransitStub;
    cfg.transit_stub = ScaledTransitStub(shape.nodes);
  }
  return BuildScenarioTopology(cfg);
}

// Every receiver (all nodes but the source, node 0) paired with
// kSendersPerReceiver distinct random senders.
std::vector<std::pair<NodeId, NodeId>> SamplePairs(const Shape& shape) {
  Rng rng(shape.seed ^ 0x5bd1e9955bd1e995ULL);
  const int senders = std::min(kSendersPerReceiver, shape.nodes - 1);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<NodeId> chosen;
  for (NodeId r = 1; r < shape.nodes; ++r) {
    chosen.clear();
    while (static_cast<int>(chosen.size()) < senders) {
      const auto s = static_cast<NodeId>(rng.UniformInt(0, shape.nodes - 1));
      if (s != r && std::find(chosen.begin(), chosen.end(), s) == chosen.end()) {
        chosen.push_back(s);
        pairs.emplace_back(s, r);
      }
    }
  }
  return pairs;
}

// topology.*: build, cold route pass (after PrewarmRoutes on routed graphs),
// warm InteriorPath queries and the path-metric composition at Connect().
std::unique_ptr<Topology> MeasureTopology(const Shape& shape,
                                          const std::vector<std::pair<NodeId, NodeId>>& pairs,
                                          SpanRecorder* rec, Metrics* metrics) {
  const uint64_t builds = Ops(shape, 5);
  std::unique_ptr<Topology> topo;
  int span = rec->Begin("topology.build");
  for (uint64_t i = 0; i < builds; ++i) {
    topo = BuildTopology(shape);
  }
  metrics->Set("topology.build_ms", static_cast<double>(rec->End(span, builds)) / 1e6 /
                                        static_cast<double>(builds));

  uint64_t sink = 0;
  span = rec->Begin("topology.prewarm");
  if (const RoutedTopology* routed = topo->AsRouted()) {
    routed->PrewarmRoutes();
  }
  for (const auto& [s, d] : pairs) {
    sink += topo->InteriorPath(s, d).size;
  }
  metrics->Set("topology.prewarm_ms", static_cast<double>(rec->End(span, pairs.size())) / 1e6);

  const uint64_t passes = std::max<uint64_t>(1, Ops(shape, 2'000'000) / pairs.size());
  span = rec->Begin("topology.route");
  for (uint64_t p = 0; p < passes; ++p) {
    for (const auto& [s, d] : pairs) {
      sink += topo->InteriorPath(s, d).size;
    }
  }
  const uint64_t queries = passes * pairs.size();
  metrics->Set("topology.route_ns",
               static_cast<double>(rec->End(span, queries)) / static_cast<double>(queries));

  const uint64_t metric_passes = std::max<uint64_t>(1, Ops(shape, 500'000) / pairs.size());
  double acc = 0.0;
  span = rec->Begin("topology.path_metrics");
  for (uint64_t p = 0; p < metric_passes; ++p) {
    for (const auto& [s, d] : pairs) {
      acc += static_cast<double>(topo->PathDelay(s, d) + topo->Rtt(s, d)) + topo->PathLoss(s, d);
    }
  }
  const uint64_t evals = metric_passes * pairs.size();
  metrics->Set("topology.path_metrics_ns",
               static_cast<double>(rec->End(span, evals)) / static_cast<double>(evals));
  g_sink = sink + static_cast<uint64_t>(acc);
  return topo;
}

// bandwidth_allocator.*: IncrementalMaxMin epochs over one flow per sampled
// pair, checked bitwise against the stateless reference.
void MeasureAllocator(const Shape& shape, const Topology& topo,
                      const std::vector<std::pair<NodeId, NodeId>>& pairs, SpanRecorder* rec,
                      Metrics* metrics) {
  // Link ids as the network numbers them: uplinks, downlinks, then interior
  // links in first-use order.
  const int n = shape.nodes;
  std::vector<double> capacity;
  for (NodeId i = 0; i < n; ++i) {
    capacity.push_back(topo.uplink(i).bandwidth_bps);
  }
  for (NodeId i = 0; i < n; ++i) {
    capacity.push_back(topo.downlink(i).bandwidth_bps);
  }
  std::vector<int32_t> interior_id(static_cast<size_t>(topo.interior_id_limit()), -1);
  std::vector<PathFlowSpec> flows;
  for (const auto& [s, d] : pairs) {
    PathFlowSpec f;
    f.links.push_back(s);
    for (const int32_t link : topo.InteriorPath(s, d)) {
      int32_t& id = interior_id[static_cast<size_t>(link)];
      if (id < 0) {
        id = static_cast<int32_t>(capacity.size());
        capacity.push_back(topo.interior_link(link).bandwidth_bps);
      }
      f.links.push_back(id);
    }
    f.links.push_back(n + d);
    const double mathis = MathisCapBps(topo.Rtt(s, d), topo.PathLoss(s, d), 1460.0);
    f.cap_bps = std::isfinite(mathis) ? mathis : 1e15;
    flows.push_back(std::move(f));
  }
  uint64_t flow_links = 0;
  for (const PathFlowSpec& f : flows) {
    flow_links += f.links.size();
  }

  const uint64_t epochs =
      std::clamp<uint64_t>(Ops(shape, 4'000'000) / std::max<uint64_t>(1, flow_links), 3, 2000);
  IncrementalMaxMin alloc;
  int64_t build_ns = 0;
  int64_t fill_ns = 0;
  const int all = rec->Begin("bandwidth_allocator.epochs");
  for (uint64_t e = 0; e < epochs; ++e) {
    int span = rec->Begin("bandwidth_allocator.build");
    alloc.BeginEpoch();
    for (const double c : capacity) {
      alloc.AddLink(c);
    }
    for (const PathFlowSpec& f : flows) {
      alloc.AddFlowPath(f.links.data(), f.links.size(), f.cap_bps);
    }
    build_ns += rec->End(span, flows.size());
    span = rec->Begin("bandwidth_allocator.fill");
    alloc.Allocate();
    fill_ns += rec->End(span, flows.size());
  }
  const int64_t all_ns = rec->End(all, epochs);
  const double per_epoch = 1e3 * static_cast<double>(epochs);
  metrics->Set("bandwidth_allocator.epoch_us", static_cast<double>(all_ns) / per_epoch);
  metrics->Set("bandwidth_allocator.build_us", static_cast<double>(build_ns) / per_epoch);
  metrics->Set("bandwidth_allocator.fill_us", static_cast<double>(fill_ns) / per_epoch);
  metrics->Set("bandwidth_allocator.flows", static_cast<double>(flows.size()));
  metrics->Set("bandwidth_allocator.flow_links", static_cast<double>(flow_links));

  const int span = rec->Begin("bandwidth_allocator.reference");
  AllocateMaxMinPaths(flows, capacity);
  rec->End(span, flows.size());
  bool match = alloc.num_flows() == flows.size();
  for (size_t i = 0; match && i < flows.size(); ++i) {
    const double a = alloc.rate(i);
    match = std::memcmp(&a, &flows[i].rate_bps, sizeof(double)) == 0;
  }
  metrics->Set("bandwidth_allocator.reference_match", match ? 1.0 : 0.0);
}

// event_queue.*: the classic hold model (pop the earliest event, schedule a
// successor) at a steady pending population, and Cancel() on pending events.
void MeasureEventQueue(const Shape& shape, SpanRecorder* rec, Metrics* metrics) {
  // Roughly one timer and a few in-flight deliveries per node.
  const uint64_t pending = 4 * static_cast<uint64_t>(shape.nodes);
  struct Hold {
    EventQueue queue;
    uint64_t remaining = 0;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    // xorshift64 delays in [1, 20000] us: cheap next to the heap work.
    SimTime NextDelay() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return 1 + static_cast<SimTime>(x % 20000);
    }
    void Fire() {
      if (remaining == 0) {
        queue.Stop();
        return;
      }
      --remaining;
      queue.ScheduleAfter(NextDelay(), [this] { Fire(); });
    }
  };
  auto hold = std::make_unique<Hold>();
  const uint64_t ops = Ops(shape, 2'000'000);
  hold->remaining = ops;
  for (uint64_t i = 0; i < pending; ++i) {
    Hold* h = hold.get();
    h->queue.ScheduleAfter(h->NextDelay(), [h] { h->Fire(); });
  }
  int span = rec->Begin("event_queue.hold");
  hold->queue.RunUntil(INT64_MAX);
  metrics->Set("event_queue.hold_ns",
               static_cast<double>(rec->End(span, ops)) / static_cast<double>(ops));

  const uint64_t cancels = Ops(shape, 2'000'000, pending);
  int64_t cancel_ns = 0;
  uint64_t done = 0;
  const int all = rec->Begin("event_queue.cancel_rounds");
  while (done < cancels) {
    EventQueue queue;
    std::vector<EventId> ids;
    ids.reserve(pending);
    for (uint64_t i = 0; i < pending; ++i) {
      ids.push_back(queue.ScheduleAfter(hold->NextDelay(), [] {}));
    }
    span = rec->Begin("event_queue.cancel");
    for (const EventId id : ids) {
      queue.Cancel(id);
    }
    cancel_ns += rec->End(span, ids.size());
    done += ids.size();
    g_sink = queue.pending();
  }
  rec->End(all, done);
  metrics->Set("event_queue.cancel_ns", static_cast<double>(cancel_ns) / static_cast<double>(done));
}

// request_strategy.*: one sender's CandidateSet holding every block of the
// file in discovery order, a quarter already held; picked ids are re-added so
// the set stays the same size across ops.
void MeasureRequestStrategy(const Shape& shape, SpanRecorder* rec, Metrics* metrics) {
  const uint32_t blocks = std::max<uint32_t>(1, shape.blocks);
  Rng rng(shape.seed ^ 0x2545f4914f6cdd1dULL);
  std::vector<uint32_t> order(blocks);
  std::vector<int> rarity_of(blocks);
  for (uint32_t b = 0; b < blocks; ++b) {
    order[b] = b;
    rarity_of[b] = static_cast<int>(rng.UniformInt(1, 20));
  }
  rng.Shuffle(order);
  CandidateSet set;
  for (const uint32_t b : order) {
    set.Add(b);
  }
  const CandidateSet::ValidFn valid = [](uint32_t id) { return id % 4 != 3; };
  const CandidateSet::RarityFn rarity = [&rarity_of](uint32_t id) { return rarity_of[id]; };
  uint64_t sink = 0;

  const uint64_t picks = Ops(shape, 100'000);
  int span = rec->Begin("request_strategy.pick");
  for (uint64_t i = 0; i < picks; ++i) {
    if (const auto id = set.Pick(RequestStrategy::kRarestRandom, valid, rarity, rng)) {
      sink += *id;
      set.Readd(*id);
    }
  }
  metrics->Set("request_strategy.pick_ns",
               static_cast<double>(rec->End(span, picks)) / static_cast<double>(picks));

  const uint64_t windowed = std::clamp<uint64_t>(Ops(shape, 50'000'000) / blocks, 1000, 500'000);
  uint32_t window_start = 0;
  const CandidateSet::ValidFn eligible = [&window_start](uint32_t id) {
    return id - window_start < kWindowBlocks;
  };
  span = rec->Begin("request_strategy.pick_windowed");
  for (uint64_t i = 0; i < windowed; ++i) {
    window_start = static_cast<uint32_t>((i * 7) % blocks);
    if (const auto id =
            set.PickWindowed(RequestStrategy::kRarestRandom, valid, eligible, rarity, rng)) {
      sink += *id;
      set.Readd(*id);
    }
  }
  metrics->Set("request_strategy.pick_windowed_ns",
               static_cast<double>(rec->End(span, windowed)) / static_cast<double>(windowed));

  const uint64_t dry = Ops(shape, 2'000'000);
  span = rec->Begin("request_strategy.running_dry");
  for (uint64_t i = 0; i < dry; ++i) {
    sink += set.RunningDry(kDryThreshold, valid) ? 1 : 0;
  }
  metrics->Set("request_strategy.running_dry_ns",
               static_cast<double>(rec->End(span, dry)) / static_cast<double>(dry));
  g_sink = sink;
}

bool ParseArgs(int argc, char** argv, Shape* shape, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      shape->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[++i];
    int64_t number = 0;
    if (arg == "--topology") {
      shape->topology = value;
    } else if (arg == "--trace") {
      shape->trace_path = value;
    } else if (arg == "--seed") {
      if (!ParseStrictUint64(value, &shape->seed)) {
        *error = "--seed requires an unsigned integer";
        return false;
      }
    } else if (arg == "--nodes") {
      if (!ParseStrictInt64(value, &number) || number < 2 || number > 1'000'000) {
        *error = "--nodes requires an integer in [2, 1000000]";
        return false;
      }
      shape->nodes = static_cast<int>(number);
    } else if (arg == "--blocks") {
      if (!ParseStrictInt64(value, &number) || number < 1 || number > 10'000'000) {
        *error = "--blocks requires an integer in [1, 10000000]";
        return false;
      }
      shape->blocks = static_cast<uint32_t>(number);
    } else {
      *error = "unknown argument: " + arg;
      return false;
    }
  }
  if (shape->topology != "mesh" && shape->topology != "transit-stub") {
    *error = "--topology must be mesh or transit-stub";
    return false;
  }
  if (shape->nodes == 0 || shape->blocks == 0 || shape->trace_path.empty()) {
    *error = "--nodes, --blocks and --trace are required";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Shape shape;
  std::string error;
  if (!ParseArgs(argc, argv, &shape, &error)) {
    std::cerr << "bullet_layers: " << error << "\n"
              << "usage: bullet_layers --topology mesh|transit-stub --nodes N --blocks B"
                 " --seed S --trace PATH [--smoke]\n";
    return 2;
  }
  SpanRecorder rec;
  Metrics metrics;
  const int root = rec.Begin("layers");
  const std::vector<std::pair<NodeId, NodeId>> pairs = SamplePairs(shape);
  const std::unique_ptr<Topology> topo = MeasureTopology(shape, pairs, &rec, &metrics);
  MeasureAllocator(shape, *topo, pairs, &rec, &metrics);
  MeasureEventQueue(shape, &rec, &metrics);
  MeasureRequestStrategy(shape, &rec, &metrics);
  rec.End(root, 1);

  std::ofstream trace(shape.trace_path);
  if (trace) {
    rec.WriteChromeTrace(trace);
    trace.close();
  }
  if (!trace) {
    std::cerr << "bullet_layers: failed writing " << shape.trace_path << "\n";
    return 1;
  }
  metrics.Write(std::cout);
  return 0;
}

}  // namespace
}  // namespace bullet

int main(int argc, char** argv) { return bullet::Main(argc, argv); }
