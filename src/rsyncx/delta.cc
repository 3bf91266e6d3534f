#include "src/rsyncx/delta.h"

#include <unordered_map>

#include "src/rsyncx/rolling_checksum.h"

namespace bullet {

FileSignature ComputeSignature(const Bytes& data, size_t block_size) {
  FileSignature sig;
  sig.block_size = block_size;
  sig.file_size = data.size();
  for (size_t off = 0; off < data.size(); off += block_size) {
    const size_t len = std::min(block_size, data.size() - off);
    BlockSignature bs;
    bs.weak = RollingChecksum::Compute(data.data() + off, len);
    bs.strong = StrongDigest(data.data() + off, len);
    sig.blocks.push_back(bs);
  }
  return sig;
}

FileDelta ComputeDelta(const Bytes& new_data, const FileSignature& sig) {
  FileDelta delta;
  delta.block_size = sig.block_size;
  delta.new_size = new_data.size();

  // Weak checksum -> candidate old-block indices. (The last, possibly short, old
  // block only matches at the very end of the new file; for simplicity it is indexed
  // too and verified by length-aware strong digests.)
  std::unordered_map<uint32_t, std::vector<uint32_t>> weak_index;
  for (uint32_t i = 0; i < sig.blocks.size(); ++i) {
    weak_index[sig.blocks[i].weak].push_back(i);
  }
  const size_t bs = sig.block_size;
  const size_t full_blocks = sig.file_size / bs;  // old blocks of exactly bs bytes

  Bytes pending_literal;
  auto flush_literal = [&] {
    if (!pending_literal.empty()) {
      DeltaCommand cmd;
      cmd.kind = DeltaCommand::Kind::kLiteral;
      cmd.literal = std::move(pending_literal);
      pending_literal.clear();
      delta.commands.push_back(std::move(cmd));
    }
  };
  auto emit_copy = [&](uint32_t block_index) {
    if (!delta.commands.empty() &&
        delta.commands.back().kind == DeltaCommand::Kind::kCopy &&
        delta.commands.back().block_index + delta.commands.back().count == block_index) {
      ++delta.commands.back().count;  // Extend the run.
    } else {
      DeltaCommand cmd;
      cmd.kind = DeltaCommand::Kind::kCopy;
      cmd.block_index = block_index;
      cmd.count = 1;
      delta.commands.push_back(cmd);
    }
  };

  size_t pos = 0;
  RollingChecksum rc;
  bool rc_valid = false;
  while (pos < new_data.size()) {
    const size_t window = std::min(bs, new_data.size() - pos);
    if (window < bs) {
      // Tail shorter than a block: try to match the old file's short tail block.
      bool matched = false;
      if (sig.file_size % bs != 0) {
        const uint32_t tail_index = static_cast<uint32_t>(sig.blocks.size()) - 1;
        const size_t tail_len = sig.file_size % bs;
        if (tail_len == window) {
          const uint32_t weak = RollingChecksum::Compute(new_data.data() + pos, window);
          if (weak == sig.blocks[tail_index].weak &&
              StrongDigest(new_data.data() + pos, window) == sig.blocks[tail_index].strong) {
            flush_literal();
            emit_copy(tail_index);
            pos += window;
            matched = true;
          }
        }
      }
      if (!matched) {
        pending_literal.insert(pending_literal.end(), new_data.begin() + static_cast<long>(pos),
                               new_data.end());
        pos = new_data.size();
      }
      break;
    }

    if (!rc_valid) {
      rc.Init(new_data.data() + pos, bs);
      rc_valid = true;
    }
    bool matched = false;
    const auto it = weak_index.find(rc.value());
    if (it != weak_index.end()) {
      const Digest128 strong = StrongDigest(new_data.data() + pos, bs);
      for (const uint32_t idx : it->second) {
        if (idx < full_blocks && sig.blocks[idx].strong == strong) {
          flush_literal();
          emit_copy(idx);
          pos += bs;
          rc_valid = false;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      pending_literal.push_back(new_data[pos]);
      if (pos + bs < new_data.size()) {
        rc.Roll(new_data[pos], new_data[pos + bs]);
      } else {
        rc_valid = false;
      }
      ++pos;
    }
  }
  flush_literal();
  return delta;
}

Bytes ApplyDelta(const Bytes& old_data, const FileDelta& delta) {
  Bytes out;
  out.reserve(delta.new_size);
  const size_t bs = delta.block_size;
  for (const auto& cmd : delta.commands) {
    if (cmd.kind == DeltaCommand::Kind::kLiteral) {
      out.insert(out.end(), cmd.literal.begin(), cmd.literal.end());
      continue;
    }
    for (uint32_t i = 0; i < cmd.count; ++i) {
      const size_t off = static_cast<size_t>(cmd.block_index + i) * bs;
      if (off >= old_data.size()) {
        return {};
      }
      const size_t len = std::min(bs, old_data.size() - off);
      out.insert(out.end(), old_data.begin() + static_cast<long>(off),
                 old_data.begin() + static_cast<long>(off + len));
    }
  }
  return out;
}

}  // namespace bullet
