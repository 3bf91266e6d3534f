// bullet_calibrate: a fixed amount of work that shares no code with the
// simulator. run.py times it between workload invocations and divides every
// measured time by how much slower it ran than its reference time, so a
// shared machine's slow spells cancel out of the reported numbers while a
// change to the simulator still moves them.
//
// The work mirrors the simulator's hot paths in kind, so contention slows
// both alike: a binary-heap hold model (event queue), hash-map churn (peer
// and connection state), a dependent-load chase through 1 MB (pointer-heavy
// node state) and an ordered-map scan with floating-point division (the
// allocator's water-fill). It prints a checksum, which must be the same on
// every run.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

uint64_t g_state = 0x9e3779b97f4a7c15ULL;

uint64_t Next() {
  g_state ^= g_state << 13;
  g_state ^= g_state >> 7;
  g_state ^= g_state << 17;
  return g_state;
}

double Unit() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

uint64_t HoldModel() {
  using Event = std::pair<double, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  for (uint32_t i = 0; i < 16384; ++i) {
    queue.push({Unit(), i});
  }
  for (int i = 0; i < 75'000; ++i) {
    const Event e = queue.top();
    queue.pop();
    queue.push({e.first + Unit(), e.second});
  }
  return queue.top().second;
}

uint64_t HashChurn() {
  std::unordered_map<uint64_t, uint64_t> table;
  uint64_t sum = 0;
  for (uint64_t i = 0; i < 125'000; ++i) {
    const uint64_t key = Next() % 100'000;
    const auto it = table.find(key);
    if (it == table.end()) {
      table.emplace(key, i);
    } else {
      sum += it->second;
      if (i & 1) {
        table.erase(it);
      }
    }
  }
  return sum + table.size();
}

uint64_t PointerChase() {
  std::vector<uint32_t> next(1u << 18);
  for (uint32_t& v : next) {
    v = static_cast<uint32_t>(Next() & (next.size() - 1));
  }
  uint32_t at = 0;
  for (uint32_t i = 0; i < 1'500'000; ++i) {
    at = next[at] ^ (i & 7);
  }
  return at;
}

uint64_t MapScan() {
  std::map<uint32_t, double> rates;
  for (int i = 0; i < 25'000; ++i) {
    rates[static_cast<uint32_t>(Next() % 1'000'000)] = static_cast<double>(i);
  }
  double acc = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    for (const auto& [key, rate] : rates) {
      if (rate > acc * 1e-9) {
        acc += rate / (key + 1.0);
      }
    }
  }
  return static_cast<uint64_t>(acc);
}

}  // namespace

int main() {
  const uint64_t checksum = HoldModel() ^ (HashChurn() << 1) ^ (PointerChase() << 2) ^
                            (MapScan() << 3);
  std::printf("%llu\n", static_cast<unsigned long long>(checksum));
  return 0;
}
