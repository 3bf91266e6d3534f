#include "src/shotgun/shotgun.h"

#include <cstring>

namespace bullet {

namespace {

void PutU32(Bytes& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}
  bool ok() const { return ok_; }

  uint32_t U32() {
    uint32_t v = 0;
    if (pos_ + 4 > data_.size()) {
      ok_ = false;
      return 0;
    }
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }

  uint64_t U64() {
    uint64_t v = 0;
    if (pos_ + 8 > data_.size()) {
      ok_ = false;
      return 0;
    }
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }

  Bytes Blob(size_t len) {
    if (len > data_.size() - pos_) {
      ok_ = false;
      return {};
    }
    Bytes out(data_.begin() + static_cast<long>(pos_), data_.begin() + static_cast<long>(pos_ + len));
    pos_ += len;
    return out;
  }

 private:
  const Bytes& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

int64_t SyncBundle::ReplayBytes() const {
  int64_t n = 0;
  for (const auto& e : entries) {
    switch (e.op) {
      case BundleEntry::Op::kPatch:
        // Patching rewrites the whole new file (copy commands read the old file,
        // literals come from the bundle).
        n += static_cast<int64_t>(e.delta.new_size) * 2;  // read old + write new
        break;
      case BundleEntry::Op::kAdd:
        n += static_cast<int64_t>(e.contents.size());
        break;
      case BundleEntry::Op::kDelete:
        break;
    }
  }
  return n;
}

SyncBundle MakeBundle(const FileTree& old_tree, const FileTree& new_tree, size_t block_size,
                      uint32_t from_version, uint32_t to_version) {
  SyncBundle bundle;
  bundle.from_version = from_version;
  bundle.to_version = to_version;
  bundle.block_size = block_size;

  for (const auto& [path, new_bytes] : new_tree) {
    const auto it = old_tree.find(path);
    if (it == old_tree.end()) {
      BundleEntry e;
      e.op = BundleEntry::Op::kAdd;
      e.path = path;
      e.contents = new_bytes;
      bundle.entries.push_back(std::move(e));
      continue;
    }
    if (it->second == new_bytes) {
      continue;  // unchanged
    }
    BundleEntry e;
    e.op = BundleEntry::Op::kPatch;
    e.path = path;
    e.delta = ComputeDelta(new_bytes, ComputeSignature(it->second, block_size));
    bundle.entries.push_back(std::move(e));
  }
  for (const auto& [path, old_bytes] : old_tree) {
    if (new_tree.find(path) == new_tree.end()) {
      BundleEntry e;
      e.op = BundleEntry::Op::kDelete;
      e.path = path;
      bundle.entries.push_back(std::move(e));
    }
  }
  return bundle;
}

bool ApplyBundle(FileTree& tree, const SyncBundle& bundle) {
  FileTree next = tree;
  for (const auto& e : bundle.entries) {
    switch (e.op) {
      case BundleEntry::Op::kAdd:
        next[e.path] = e.contents;
        break;
      case BundleEntry::Op::kDelete:
        next.erase(e.path);
        break;
      case BundleEntry::Op::kPatch: {
        const auto it = next.find(e.path);
        if (it == next.end()) {
          return false;
        }
        Bytes patched = ApplyDelta(it->second, e.delta);
        if (patched.size() != e.delta.new_size) {
          return false;
        }
        it->second = std::move(patched);
        break;
      }
    }
  }
  tree = std::move(next);
  return true;
}

Bytes SerializeBundle(const SyncBundle& bundle) {
  Bytes out;
  PutU32(out, bundle.from_version);
  PutU32(out, bundle.to_version);
  PutU64(out, bundle.block_size);
  PutU32(out, static_cast<uint32_t>(bundle.entries.size()));
  for (const auto& e : bundle.entries) {
    out.push_back(static_cast<uint8_t>(e.op));
    PutU32(out, static_cast<uint32_t>(e.path.size()));
    out.insert(out.end(), e.path.begin(), e.path.end());
    switch (e.op) {
      case BundleEntry::Op::kAdd:
        PutU64(out, e.contents.size());
        out.insert(out.end(), e.contents.begin(), e.contents.end());
        break;
      case BundleEntry::Op::kDelete:
        break;
      case BundleEntry::Op::kPatch: {
        PutU64(out, e.delta.block_size);
        PutU64(out, e.delta.new_size);
        PutU32(out, static_cast<uint32_t>(e.delta.commands.size()));
        for (const auto& cmd : e.delta.commands) {
          out.push_back(cmd.kind == DeltaCommand::Kind::kCopy ? 1 : 0);
          if (cmd.kind == DeltaCommand::Kind::kCopy) {
            PutU32(out, cmd.block_index);
            PutU32(out, cmd.count);
          } else {
            PutU64(out, cmd.literal.size());
            out.insert(out.end(), cmd.literal.begin(), cmd.literal.end());
          }
        }
        break;
      }
    }
  }
  return out;
}

std::optional<SyncBundle> ParseBundle(const Bytes& data) {
  Reader r(data);
  SyncBundle bundle;
  bundle.from_version = r.U32();
  bundle.to_version = r.U32();
  bundle.block_size = static_cast<size_t>(r.U64());
  const uint32_t entries = r.U32();
  for (uint32_t i = 0; i < entries && r.ok(); ++i) {
    BundleEntry e;
    const Bytes op = r.Blob(1);
    if (!r.ok()) {
      break;
    }
    e.op = static_cast<BundleEntry::Op>(op[0]);
    const uint32_t path_len = r.U32();
    const Bytes path = r.Blob(path_len);
    e.path.assign(path.begin(), path.end());
    switch (e.op) {
      case BundleEntry::Op::kAdd: {
        const uint64_t len = r.U64();
        e.contents = r.Blob(static_cast<size_t>(len));
        break;
      }
      case BundleEntry::Op::kDelete:
        break;
      case BundleEntry::Op::kPatch: {
        e.delta.block_size = static_cast<size_t>(r.U64());
        e.delta.new_size = r.U64();
        const uint32_t commands = r.U32();
        for (uint32_t c = 0; c < commands && r.ok(); ++c) {
          DeltaCommand cmd;
          const Bytes kind = r.Blob(1);
          if (!r.ok()) {
            break;
          }
          if (kind[0] == 1) {
            cmd.kind = DeltaCommand::Kind::kCopy;
            cmd.block_index = r.U32();
            cmd.count = r.U32();
          } else {
            cmd.kind = DeltaCommand::Kind::kLiteral;
            const uint64_t len = r.U64();
            cmd.literal = r.Blob(static_cast<size_t>(len));
          }
          e.delta.commands.push_back(std::move(cmd));
        }
        break;
      }
      default:
        return std::nullopt;
    }
    bundle.entries.push_back(std::move(e));
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return bundle;
}

}  // namespace bullet
