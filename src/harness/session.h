// Session and workload specifications — the unit of experiment wiring.
//
// A *session* is one file dissemination: file parameters, a source, the member
// set that participates, and a join schedule (per-member offsets from the
// session start). A *workload* is a set of sessions sharing one emulated
// network; sessions may start staggered (flash crowds, late joiners) and run
// concurrently over shared links, each with its own system chosen by key from
// kSystems (src/harness/workload.h). The legacy single-session shape — one
// file, one source, every node joining at t=0 — is the degenerate workload
// with one session spanning all nodes with zero offsets.

#ifndef SRC_HARNESS_SESSION_H_
#define SRC_HARNESS_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/overlay/dissemination.h"
#include "src/overlay/streaming.h"
#include "src/sim/time.h"

namespace bullet {

// Workload generators (src/harness/workload_gen.h, src/harness/churn.h). Specs
// hold them as shared_ptr-to-const so a spec stays a cheap value type.
class ArrivalProcess;
class ParetoLifetime;
class ChurnModel;

struct SessionSpec {
  // Reporting label; defaults to the system's display name when empty.
  std::string name;
  // A kSystems key ("bullet-prime", "bullet", "bittorrent", "splitstream").
  // Ignored when the session is added with an explicit caller-supplied
  // factory.
  std::string protocol = "bullet-prime";
  FileParams file;
  NodeId source = 0;
  // Participating nodes (global NodeIds). Empty means every node in the
  // network. Sessions within one workload must have pairwise-disjoint member
  // sets: one node runs at most one protocol instance.
  std::vector<NodeId> members;
  // Session epoch, relative to simulation start. Member join times are
  // `start + join_offsets[i]`.
  SimTime start = 0;
  // Per-member join offsets, parallel to `members` (after the empty-members
  // default is expanded, parallel to 0..n-1). Empty means all zero. The
  // source's join time must be the session's earliest (it roots the control
  // tree, and the tree only attaches joiners to already-joined parents).
  std::vector<SimTime> join_offsets;
  // Session seed; unset derives a per-session stream from the workload seed
  // and the session index. The control tree, the per-node protocol RNGs and
  // any protocol-level structures (e.g. SplitStream's forest) all derive from
  // this value with the same constants the single-session harness always used.
  std::optional<uint64_t> seed;
  // Bullet' settings (the design-space experiments, Sections 4.3-4.5). Only
  // Bullet' sessions read it; the baselines run fixed configurations.
  BulletPrimeConfig bullet_prime;
  // Generator-driven join schedule: synthesizes join_offsets from a
  // seed-derived stream (mutually exclusive with explicit join_offsets; the
  // source keeps offset zero). See workload_gen.h.
  std::shared_ptr<const ArrivalProcess> arrivals;
  // Playback-deadline (streaming) mode: blocks acquire positions and playback
  // deadlines derived from the bitrate, completion means "held every required
  // position" instead of "holds the full file", and the harness reports
  // rebuffer/stall seconds and blocks-missed-deadline per receiver. Unset (the
  // default) keeps the bulk-transfer semantics. Only systems whose kSystems
  // row streams accept it. See overlay/streaming.h.
  std::optional<StreamingSpec> streaming;
  // Generator-driven member lifetimes: every receiver departs mid-run once
  // its drawn lifetime expires (network failure + completion-policy credit),
  // and with departs_after_completion() also shortly after finishing — the
  // "seeder departs" regime. See workload_gen.h.
  std::shared_ptr<const ParetoLifetime> lifetimes;
};

struct WorkloadSpec {
  std::vector<SessionSpec> sessions;
  // A churn model whose failure schedule is drawn at Run() over every
  // session (BuildScenarioExperiment installs it).
  std::shared_ptr<const ChurnModel> churn;
};

}  // namespace bullet

#endif  // SRC_HARNESS_SESSION_H_
