// Base class for per-node protocol instances (the role MACEDON plays in the paper:
// the framework supplies transport, timers and randomness; the protocol supplies the
// overlay algorithm).

#ifndef SRC_OVERLAY_PROTOCOL_H_
#define SRC_OVERLAY_PROTOCOL_H_

#include <utility>

#include "src/common/rng.h"
#include "src/sim/metrics.h"
#include "src/sim/network.h"

namespace bullet {

class Protocol : public NetHandler {
 public:
  struct Context {
    NodeId self = -1;
    Network* net = nullptr;
    RunMetrics* metrics = nullptr;
    uint64_t seed = 0;
  };

  explicit Protocol(const Context& ctx)
      : self_(ctx.self), net_(ctx.net), metrics_(ctx.metrics), rng_(ctx.seed) {}
  ~Protocol() override = default;

  // Called once at simulation start, after all handlers are registered.
  virtual void Start() = 0;

 protected:
  NodeId self() const { return self_; }
  Network& net() { return *net_; }
  EventQueue& queue() { return net_->queue(); }
  SimTime now() const { return net_->now(); }
  RunMetrics& metrics() { return *metrics_; }
  Rng& rng() { return rng_; }

 private:
  NodeId self_;
  Network* net_;
  RunMetrics* metrics_;
  Rng rng_;
};

}  // namespace bullet

#endif  // SRC_OVERLAY_PROTOCOL_H_
