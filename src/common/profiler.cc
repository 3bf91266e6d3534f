#include "src/common/profiler.h"

namespace bullet {
namespace {

thread_local PhaseProfiler* g_phase_profiler = nullptr;

}  // namespace

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

PhaseProfiler* PhaseProfiler::Current() { return g_phase_profiler; }

PhaseProfiler* PhaseProfiler::Swap(PhaseProfiler* p) {
  PhaseProfiler* prev = g_phase_profiler;
  g_phase_profiler = p;
  return prev;
}

}  // namespace bullet
