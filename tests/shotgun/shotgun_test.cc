#include "src/shotgun/shotgun.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

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

FileTree MakeTree(uint64_t seed) {
  FileTree tree;
  tree["bin/app"] = RandomBytes(50 * 1024, seed);
  tree["lib/core.so"] = RandomBytes(120 * 1024, seed + 1);
  tree["etc/config"] = RandomBytes(2 * 1024, seed + 2);
  tree["data/table.bin"] = RandomBytes(30 * 1024, seed + 3);
  return tree;
}

TEST(Shotgun, IdenticalTreesProduceEmptyBundle) {
  const FileTree tree = MakeTree(1);
  const SyncBundle bundle = MakeBundle(tree, tree, 1024, 1, 2);
  EXPECT_TRUE(bundle.entries.empty());
  EXPECT_LT(SerializeBundle(bundle).size(), 64u);
}

TEST(Shotgun, PatchAddDeleteOps) {
  FileTree old_tree = MakeTree(2);
  FileTree new_tree = old_tree;
  // Patch: modify a slice of an existing file.
  for (size_t i = 100; i < 300; ++i) {
    new_tree["bin/app"][i] ^= 0xff;
  }
  // Add and delete.
  new_tree["docs/README"] = RandomBytes(5 * 1024, 77);
  new_tree.erase("etc/config");

  const SyncBundle bundle = MakeBundle(old_tree, new_tree, 1024, 3, 4);
  ASSERT_EQ(bundle.entries.size(), 3u);

  int patches = 0;
  int adds = 0;
  int deletes = 0;
  for (const auto& e : bundle.entries) {
    switch (e.op) {
      case BundleEntry::Op::kPatch:
        ++patches;
        EXPECT_EQ(e.path, "bin/app");
        break;
      case BundleEntry::Op::kAdd:
        ++adds;
        EXPECT_EQ(e.path, "docs/README");
        break;
      case BundleEntry::Op::kDelete:
        ++deletes;
        EXPECT_EQ(e.path, "etc/config");
        break;
    }
  }
  EXPECT_EQ(patches, 1);
  EXPECT_EQ(adds, 1);
  EXPECT_EQ(deletes, 1);

  FileTree applied = old_tree;
  ASSERT_TRUE(ApplyBundle(applied, bundle));
  EXPECT_EQ(applied, new_tree);
}

TEST(Shotgun, DeltaBundleMuchSmallerThanImage) {
  FileTree old_tree = MakeTree(3);
  FileTree new_tree = old_tree;
  new_tree["lib/core.so"][1000] ^= 1;  // single-byte change in a 120 KB file
  const SyncBundle bundle = MakeBundle(old_tree, new_tree, 1024, 1, 2);
  int64_t image_bytes = 0;
  for (const auto& [path, bytes] : new_tree) {
    image_bytes += static_cast<int64_t>(bytes.size());
  }
  EXPECT_LT(static_cast<int64_t>(SerializeBundle(bundle).size()), image_bytes / 20);
}

TEST(Shotgun, ApplyFailsCleanlyOnWrongBase) {
  FileTree old_tree = MakeTree(4);
  FileTree new_tree = old_tree;
  for (size_t i = 0; i < 512; ++i) {
    new_tree["bin/app"][i] ^= 0x5a;
  }
  const SyncBundle bundle = MakeBundle(old_tree, new_tree, 1024, 1, 2);

  // A client whose base tree lost the file cannot apply the patch...
  FileTree broken = old_tree;
  broken.erase("bin/app");
  FileTree snapshot = broken;
  EXPECT_FALSE(ApplyBundle(broken, bundle));
  EXPECT_EQ(broken, snapshot);  // untouched on failure
}

TEST(Shotgun, SerializeParseRoundtrip) {
  FileTree old_tree = MakeTree(5);
  FileTree new_tree = old_tree;
  for (size_t i = 5000; i < 9000; ++i) {
    new_tree["data/table.bin"][i % new_tree["data/table.bin"].size()] ^= 0x33;
  }
  new_tree["new/file"] = RandomBytes(3000, 88);
  new_tree.erase("bin/app");

  const SyncBundle bundle = MakeBundle(old_tree, new_tree, 512, 9, 10);
  const Bytes wire = SerializeBundle(bundle);
  const auto parsed = ParseBundle(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->from_version, 9u);
  EXPECT_EQ(parsed->to_version, 10u);
  EXPECT_EQ(parsed->entries.size(), bundle.entries.size());

  FileTree applied = old_tree;
  ASSERT_TRUE(ApplyBundle(applied, *parsed));
  EXPECT_EQ(applied, new_tree);
}

TEST(Shotgun, ParseRejectsTruncated) {
  FileTree old_tree = MakeTree(6);
  FileTree new_tree = old_tree;
  new_tree["x"] = RandomBytes(1000, 1);
  Bytes wire = SerializeBundle(MakeBundle(old_tree, new_tree, 512, 1, 2));
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(ParseBundle(wire).has_value());
}

TEST(Shotgun, ParseRejectsLengthPastTheEnd) {
  // One kAdd entry whose 64-bit content length would wrap a naive bounds check.
  Bytes wire = SerializeBundle(SyncBundle{});
  wire[16] = 1;                      // entry count
  wire.push_back(1);                 // op: kAdd
  wire.insert(wire.end(), 4, 0);     // empty path
  wire.insert(wire.end(), 8, 0xff);  // content length 2^64 - 1
  wire.push_back(0);
  EXPECT_FALSE(ParseBundle(wire).has_value());
}

TEST(Shotgun, ReplayBytesAccounting) {
  FileTree old_tree = MakeTree(7);
  FileTree new_tree = old_tree;
  for (auto& [path, bytes] : new_tree) {
    bytes[0] ^= 1;  // touch every file
  }
  const SyncBundle bundle = MakeBundle(old_tree, new_tree, 1024, 1, 2);
  int64_t image_bytes = 0;
  for (const auto& [path, bytes] : new_tree) {
    image_bytes += static_cast<int64_t>(bytes.size());
  }
  // Patching replays old + new: twice the image.
  EXPECT_EQ(bundle.ReplayBytes(), image_bytes * 2);
}

}  // namespace
}  // namespace bullet
