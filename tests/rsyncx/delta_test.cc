#include "src/rsyncx/delta.h"

#include <gtest/gtest.h>

#include <tuple>

#include "src/common/rng.h"
#include "src/rsyncx/rolling_checksum.h"

namespace bullet {
namespace {

Bytes RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

int64_t LiteralBytes(const FileDelta& delta) {
  int64_t n = 0;
  for (const DeltaCommand& cmd : delta.commands) {
    if (cmd.kind == DeltaCommand::Kind::kLiteral) {
      n += static_cast<int64_t>(cmd.literal.size());
    }
  }
  return n;
}

TEST(RollingChecksum, RollMatchesRecompute) {
  const Bytes data = RandomBytes(4096, 1);
  constexpr size_t kWindow = 256;
  RollingChecksum rc;
  rc.Init(data.data(), kWindow);
  for (size_t pos = 0; pos + kWindow < data.size(); ++pos) {
    EXPECT_EQ(rc.value(), RollingChecksum::Compute(data.data() + pos, kWindow)) << pos;
    rc.Roll(data[pos], data[pos + kWindow]);
  }
}

TEST(RollingChecksum, SensitiveToOrder) {
  const Bytes a = {1, 2, 3, 4};
  const Bytes b = {4, 3, 2, 1};
  EXPECT_NE(RollingChecksum::Compute(a.data(), 4), RollingChecksum::Compute(b.data(), 4));
}

TEST(Signature, BlocksAndSizes) {
  const Bytes data = RandomBytes(1000, 2);
  const FileSignature sig = ComputeSignature(data, 256);
  EXPECT_EQ(sig.blocks.size(), 4u);  // 256*3 + 232
  EXPECT_EQ(sig.file_size, 1000u);
  EXPECT_GT(sig.WireBytes(), 0);
}

TEST(Delta, IdenticalFilesAreAllCopies) {
  const Bytes data = RandomBytes(8192, 3);
  const FileDelta delta = ComputeDelta(data, ComputeSignature(data, 512));
  EXPECT_EQ(LiteralBytes(delta), 0);
  ASSERT_EQ(delta.commands.size(), 1u);  // one coalesced copy run
  EXPECT_EQ(delta.commands[0].kind, DeltaCommand::Kind::kCopy);
  EXPECT_EQ(delta.commands[0].count, 16u);
  EXPECT_EQ(ApplyDelta(data, delta), data);
}

TEST(Delta, CompletelyDifferentFilesAreLiteral) {
  const Bytes old_data = RandomBytes(4096, 4);
  const Bytes new_data = RandomBytes(4096, 5);
  const FileDelta delta = ComputeDelta(new_data, ComputeSignature(old_data, 512));
  EXPECT_EQ(LiteralBytes(delta), 4096);
  EXPECT_EQ(ApplyDelta(old_data, delta), new_data);
}

TEST(Delta, EmptyFiles) {
  const Bytes empty;
  const Bytes data = RandomBytes(100, 6);
  EXPECT_EQ(ApplyDelta(empty, ComputeDelta(data, ComputeSignature(empty, 64))), data);
  EXPECT_EQ(ApplyDelta(data, ComputeDelta(empty, ComputeSignature(data, 64))), empty);
}

TEST(Delta, ShortTailBlockMatches) {
  // Old file ends with a short block; unchanged content must still be a copy.
  Bytes data = RandomBytes(1000, 7);  // 3 full 256-blocks + 232 tail
  const FileDelta delta = ComputeDelta(data, ComputeSignature(data, 256));
  EXPECT_EQ(LiteralBytes(delta), 0);
  EXPECT_EQ(ApplyDelta(data, delta), data);
}

TEST(Delta, InsertionShiftsAreHandled) {
  // rsync's raison d'etre: an insertion early in the file must not force literals
  // for the entire shifted remainder.
  const Bytes old_data = RandomBytes(64 * 1024, 8);
  Bytes new_data = old_data;
  const Bytes inserted = RandomBytes(100, 9);
  new_data.insert(new_data.begin() + 1000, inserted.begin(), inserted.end());

  const FileDelta delta = ComputeDelta(new_data, ComputeSignature(old_data, 1024));
  EXPECT_EQ(ApplyDelta(old_data, delta), new_data);
  EXPECT_LT(LiteralBytes(delta), 3 * 1024);  // ~1 block of literals, not 63 KB
}

TEST(Delta, CorruptCopyIndexReturnsEmpty) {
  const Bytes old_data = RandomBytes(1024, 10);
  FileDelta delta;
  delta.block_size = 256;
  delta.new_size = 256;
  DeltaCommand cmd;
  cmd.kind = DeltaCommand::Kind::kCopy;
  cmd.block_index = 99;  // way past the old file
  cmd.count = 1;
  delta.commands.push_back(cmd);
  EXPECT_TRUE(ApplyDelta(old_data, delta).empty());
}

// Property sweep: random mutations of random files must roundtrip exactly, and small
// mutations must produce small deltas.
class DeltaMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaMutationTest, RoundtripAndEfficiency) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const size_t file_size = static_cast<size_t>(rng.UniformInt(10 * 1024, 200 * 1024));
  const size_t block_size = static_cast<size_t>(rng.UniformInt(128, 2048));
  const Bytes old_data = RandomBytes(file_size, rng.Next());

  // Apply a handful of random edits.
  Bytes new_data = old_data;
  const int edits = static_cast<int>(rng.UniformInt(1, 8));
  int64_t edited_bytes = 0;
  for (int e = 0; e < edits; ++e) {
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    const size_t len = static_cast<size_t>(rng.UniformInt(1, 2000));
    const size_t pos =
        new_data.empty() ? 0 : static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(new_data.size()) - 1));
    if (kind == 0) {  // insert
      const Bytes ins = RandomBytes(len, rng.Next());
      new_data.insert(new_data.begin() + static_cast<long>(pos), ins.begin(), ins.end());
      edited_bytes += static_cast<int64_t>(len);
    } else if (kind == 1 && pos + len <= new_data.size()) {  // overwrite
      const Bytes over = RandomBytes(len, rng.Next());
      std::copy(over.begin(), over.end(), new_data.begin() + static_cast<long>(pos));
      edited_bytes += static_cast<int64_t>(len);
    } else {  // delete
      const size_t dlen = std::min(len, new_data.size() - pos);
      new_data.erase(new_data.begin() + static_cast<long>(pos),
                     new_data.begin() + static_cast<long>(pos + dlen));
    }
  }

  const FileSignature sig = ComputeSignature(old_data, block_size);
  const FileDelta delta = ComputeDelta(new_data, sig);
  ASSERT_EQ(ApplyDelta(old_data, delta), new_data);

  // Efficiency: literals bounded by edited bytes plus one block of spill per edit.
  EXPECT_LE(LiteralBytes(delta),
            edited_bytes + static_cast<int64_t>((edits + 1) * 2 * block_size))
      << "file=" << file_size << " block=" << block_size << " edits=" << edits;
}

INSTANTIATE_TEST_SUITE_P(RandomMutations, DeltaMutationTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace bullet
