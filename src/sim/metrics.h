// Per-run metrics filled in by protocols. The experiment harness turns these into the
// CDFs and tables reported by the paper.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/sim/topology.h"

namespace bullet {

struct NodeMetrics {
  SimTime completion = -1;  // -1 until the node holds the full file
  SimTime departed = -1;    // -1 unless the node left the session mid-run
  int64_t useful_blocks = 0;
  int64_t duplicate_blocks = 0;  // blocks received that were already held
  int64_t data_bytes_in = 0;
  int64_t dup_bytes_in = 0;
  int64_t ctrl_bytes_in = 0;
  int64_t ctrl_bytes_out = 0;
  // Arrival time of every accepted block, recorded when RunMetrics::record_arrivals
  // is set (Fig. 13 inter-arrival analysis).
  std::vector<SimTime> block_arrivals;
  // Streaming sessions only: first-arrival time per playback position (-1 =
  // never arrived). Empty until the node's first block (or for bulk sessions);
  // sized lazily by RunMetrics::RecordPositionArrival.
  std::vector<SimTime> position_arrivals;
};

class RunMetrics {
 public:
  explicit RunMetrics(int num_nodes) : nodes_(static_cast<size_t>(num_nodes)) {}

  NodeMetrics& node(NodeId n) { return nodes_[static_cast<size_t>(n)]; }
  const NodeMetrics& node(NodeId n) const { return nodes_[static_cast<size_t>(n)]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  void RecordCompletion(NodeId n, SimTime t) {
    NodeMetrics& m = node(n);
    if (m.completion < 0) {
      m.completion = t;
      ++completed_;
      if (m.departed >= 0) {
        // Completed after departing (an in-flight delivery landed first): the
        // node must not count toward the live target twice.
        --departed_incomplete_;
      }
      if (completion_observer_) {
        completion_observer_(n, t);
      }
    }
  }
  int completed() const { return completed_; }

  // Marks a member as departed (failed / left the overlay). Idempotent. A
  // departure before completion shrinks the session's live receiver set: the
  // completion policy treats departed-incomplete members as no longer owed the
  // file, so a session whose stragglers all left still terminates.
  void RecordDeparture(NodeId n, SimTime t) {
    NodeMetrics& m = node(n);
    if (m.departed < 0) {
      m.departed = t;
      if (m.completion < 0) {
        ++departed_incomplete_;
      }
    }
  }
  int departed_incomplete() const { return departed_incomplete_; }

  // --- streaming ---
  //
  // Streaming sessions (SessionSpec::streaming) record the first arrival of
  // every playback position so the harness can reconstruct each receiver's
  // playback timeline (stall seconds, blocks missed) after the run. The
  // protocol layer calls this from AcceptBlock; `num_positions` sizes the
  // per-node arrival vector on first use.
  void EnableStreaming(uint32_t num_positions) { num_positions_ = num_positions; }
  bool streaming() const { return num_positions_ > 0; }
  uint32_t num_positions() const { return num_positions_; }
  void RecordPositionArrival(NodeId n, uint32_t position, SimTime t) {
    NodeMetrics& m = node(n);
    if (m.position_arrivals.empty()) {
      m.position_arrivals.assign(num_positions_, -1);
    }
    if (position < m.position_arrivals.size() && m.position_arrivals[position] < 0) {
      m.position_arrivals[position] = t;
    }
  }

  // Fired from inside RecordCompletion (once per node, at its completion
  // instant). The workload harness uses it to schedule post-completion
  // departures (LifetimeModel::departs_after_completion).
  void SetCompletionObserver(std::function<void(NodeId, SimTime)> observer) {
    completion_observer_ = std::move(observer);
  }

  // --- session scoping ---
  //
  // A RunMetrics may describe a *session* over a subset of the network: node
  // slots still index by global NodeId (non-members stay zero and do not
  // affect the aggregate fractions), but completion accounting and the
  // CompletionSeconds series are restricted to the member set, and "everyone
  // finished" means the session's own receivers — not num_nodes()-1. The
  // harness installs the policy; protocols only call NotifyIfAllComplete().

  // Restricts CompletionSeconds to `members` (in the given order). Empty means
  // every node, the historical behavior.
  void SetMembers(std::vector<NodeId> members) { members_ = std::move(members); }
  const std::vector<NodeId>& members() const { return members_; }

  // Arms the completion policy: once `receivers_target` nodes have completed,
  // the next NotifyIfAllComplete() fires `on_all_complete` exactly once (the
  // session-completion hook; the workload harness uses it to stop the network
  // only when *every* session is done).
  void SetCompletionPolicy(int receivers_target, std::function<void()> on_all_complete) {
    completion_target_ = receivers_target;
    on_all_complete_ = std::move(on_all_complete);
  }
  bool all_complete() const {
    return completion_target_ >= 0 && completed_ + departed_incomplete_ >= completion_target_;
  }
  void NotifyIfAllComplete() {
    if (all_complete() && on_all_complete_) {
      // Move-out first: the callback may copy or destroy this object.
      std::function<void()> cb = std::move(on_all_complete_);
      on_all_complete_ = nullptr;
      cb();
    }
  }

  // Completion times in seconds for all member nodes except `exclude` (the source).
  // Nodes that never completed are reported at `incomplete_value` seconds if >= 0.
  std::vector<double> CompletionSeconds(NodeId exclude, double incomplete_value = -1.0) const;

  // duplicate_blocks / (useful + duplicate) over all nodes.
  double DuplicateFraction() const;
  // control bytes / total bytes received, over all nodes.
  double ControlOverheadFraction() const;

  bool record_arrivals = false;

 private:
  std::vector<NodeMetrics> nodes_;
  int completed_ = 0;
  int departed_incomplete_ = 0;  // departed members that never completed
  uint32_t num_positions_ = 0;  // > 0: streaming session (position arrivals recorded)
  int completion_target_ = -1;  // < 0: no policy installed (never all complete)
  std::function<void()> on_all_complete_;
  std::function<void(NodeId, SimTime)> completion_observer_;
  std::vector<NodeId> members_;  // empty: all nodes
};

}  // namespace bullet

#endif  // SRC_SIM_METRICS_H_
