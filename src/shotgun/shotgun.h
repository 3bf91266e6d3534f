// Shotgun (Section 4.8): rsync batch mode wrapped around Bullet'.
//
// shotgun_sync at the source runs the rsync algorithm between the old and the new
// software image, producing one versioned bundle of per-file deltas; the bundle is
// disseminated to every node over the Bullet' mesh; each node's shotgund applies the
// bundle to its local tree if the bundle's version succeeds its own.
//
// This module implements the data plane for real bytes: tree diffing into a bundle,
// bundle (de)serialization with exact wire sizes, and patch application with
// verification. The Fig. 15 bench pushes these real bundle bytes through the
// emulated network; examples/mirror_sync.cc runs the full path on actual files.

#ifndef SRC_SHOTGUN_SHOTGUN_H_
#define SRC_SHOTGUN_SHOTGUN_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/rsyncx/delta.h"

namespace bullet {

// A software image: path -> file contents.
using FileTree = std::map<std::string, Bytes>;

struct BundleEntry {
  enum class Op { kPatch, kAdd, kDelete };
  Op op = Op::kAdd;
  std::string path;
  FileDelta delta;   // kPatch
  Bytes contents;    // kAdd
};

struct SyncBundle {
  uint32_t from_version = 0;
  uint32_t to_version = 0;
  size_t block_size = 0;
  std::vector<BundleEntry> entries;

  // Bytes shotgund must write while replaying (the paper observed replay costing
  // about twice the download on PlanetLab disks).
  int64_t ReplayBytes() const;
};

// Computes the bundle turning `old_tree` into `new_tree`. Unchanged files produce no
// entry; changed files produce kPatch (rsync delta); new files kAdd; removed files
// kDelete.
SyncBundle MakeBundle(const FileTree& old_tree, const FileTree& new_tree, size_t block_size,
                      uint32_t from_version, uint32_t to_version);

// Applies `bundle` to `tree` in place. Returns false (leaving `tree` untouched) if
// any patch fails to apply.
bool ApplyBundle(FileTree& tree, const SyncBundle& bundle);

// The wire format: what the source multicasts and each shotgund parses. Its size is
// the bundle's exact size on the wire and on disk.
Bytes SerializeBundle(const SyncBundle& bundle);
std::optional<SyncBundle> ParseBundle(const Bytes& data);

}  // namespace bullet

#endif  // SRC_SHOTGUN_SHOTGUN_H_
