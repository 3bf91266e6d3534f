#include "src/common/profiler.h"

namespace bullet {
namespace {

thread_local RunCounters* g_run_counters = nullptr;
thread_local PhaseProfiler* g_phase_profiler = nullptr;

}  // namespace

RunCounters* RunCounters::Current() { return g_run_counters; }

RunCounters* RunCounters::Swap(RunCounters* c) {
  RunCounters* prev = g_run_counters;
  g_run_counters = c;
  return prev;
}

const char* ProfilePhaseName(ProfilePhase phase) {
  switch (phase) {
    case ProfilePhase::kEventDispatch:
      return "event_dispatch";
    case ProfilePhase::kEventSchedule:
      return "event_schedule";
    case ProfilePhase::kAllocatorEpoch:
      return "allocator_epoch";
    case ProfilePhase::kWaterFill:
      return "water_fill";
    case ProfilePhase::kProtocolLogic:
      return "protocol_logic";
    case ProfilePhase::kRequestStrategy:
      return "request_strategy";
    case ProfilePhase::kPathLookup:
      return "path_lookup";
    case ProfilePhase::kTopologyMetrics:
      return "topology_metrics";
    case ProfilePhase::kCount:
      break;
  }
  return "unknown";
}

void PhaseProfiler::Reset() {
  for (Slot& s : slots_) {
    s.count.store(0, std::memory_order_relaxed);
    s.ns.store(0, std::memory_order_relaxed);
  }
}

PhaseProfiler* PhaseProfiler::Current() { return g_phase_profiler; }

PhaseProfiler* PhaseProfiler::Swap(PhaseProfiler* p) {
  PhaseProfiler* prev = g_phase_profiler;
  g_phase_profiler = p;
  return prev;
}

}  // namespace bullet
