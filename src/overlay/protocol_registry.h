// String-keyed registry of dissemination protocols, replacing the closed System
// enum dispatch. Each system registers one factory (see RegisterXxxProtocol in
// src/core / src/baselines); workload sessions pick protocols by name, so one
// network can mix systems and the bullet_run CLI gains --system without the
// harness enumerating concrete types.
//
// Registration is two-stage: a SessionFactory runs once per session (building
// any shared per-session structure, e.g. SplitStream's stripe forest) and
// returns the NodeFactory that instantiates one protocol per joining member.

#ifndef SRC_OVERLAY_PROTOCOL_REGISTRY_H_
#define SRC_OVERLAY_PROTOCOL_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeinfo>
#include <vector>

#include "src/overlay/control_tree.h"
#include "src/overlay/protocol.h"
#include "src/overlay/session.h"

namespace bullet {

class ProtocolRegistry {
 public:
  // Everything a session hands its protocol factory when it is set up.
  struct SessionEnv {
    const SessionSpec* spec = nullptr;  // normalized: members/offsets expanded
    const ControlTree* tree = nullptr;  // session-scoped control tree
    uint64_t seed = 0;                  // resolved session seed
    int num_nodes = 0;                  // network-wide node count
  };

  // Instantiates one protocol for a joining member. The Context carries the
  // member's node id, the shared network, the session's metrics object and the
  // per-node RNG seed.
  using NodeFactory = std::function<std::unique_ptr<Protocol>(const Protocol::Context&)>;
  // Runs once per session; returns the per-node factory used as members join.
  using SessionFactory = std::function<NodeFactory(const SessionEnv&)>;

  struct Entry {
    std::string key;           // registry name, e.g. "bullet-prime"
    std::string display_name;  // reporting label, e.g. "BulletPrime"
    std::string description;
    // Source-encoded-stream methodology (Section 4.2): Bullet and SplitStream
    // complete at (1 + 4%) n distinct blocks. The harness applies this to the
    // session's FileParams unless the caller already forced encoding.
    bool encoded_stream = false;
    // Set when the protocol cannot run over a member subset (SplitStream: its
    // stripe forest is interior-disjoint over the whole node-id space).
    // Scenarios with subset sessions treat a --system naming such a protocol
    // as an override that does not apply; AddSession still BULLET_CHECKs it.
    bool requires_full_span = false;
    // The protocol's configuration type (e.g. &typeid(BulletPrimeConfig)).
    // SessionSpec::protocol_config must be empty or hold exactly this type —
    // the harness validates it at AddSession with a clear message, instead of
    // a bad_any_cast (or a silent default fallback) deep inside the factory.
    // Null means the protocol takes no config: only an empty any is accepted.
    const std::type_info* config_type = nullptr;
    SessionFactory make;
  };

  // The process-wide registry. Built-in systems are registered on first use of
  // the workload harness (see EnsureBuiltinProtocolsRegistered in workload.h);
  // tests may register additional protocols.
  static ProtocolRegistry& Global();

  // Thread-safety: Register/Find/List/size serialize on an internal mutex, so
  // concurrent registration and lookup (e.g. sweep workers constructing
  // experiments while another thread's EnsureBuiltinProtocolsRegistered is
  // mid-flight) are safe.
  // Returned Entry pointers stay valid and immutable forever: entries_ is a
  // node-based map and entries are never erased or overwritten — Register of
  // a duplicate key leaves the registry unchanged.

  // Returns false (and leaves the registry unchanged) on a duplicate key.
  bool Register(Entry entry);

  // nullptr when no protocol has that key.
  const Entry* Find(const std::string& key) const;
  // Sorted by key.
  std::vector<const Entry*> List() const;
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace bullet

#endif  // SRC_OVERLAY_PROTOCOL_REGISTRY_H_
