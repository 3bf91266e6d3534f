// Hashing primitives shared by the erasure codec (seeded block selection), the rsync
// library (strong block digests), and the availability sketch.

#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace bullet {

// Single-shot 64-bit mix (SplitMix64 finalizer). Good for deriving hash values from
// integers (block ids, node ids).
uint64_t Mix64(uint64_t x);

// 128-bit strong digest built from two independently-seeded FNV/mix passes. This is
// not cryptographic; it plays the role MD4/MD5 plays in rsync — a collision
// probability low enough that delta reconstruction is reliable.
struct Digest128 {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const Digest128& o) const { return lo == o.lo && hi == o.hi; }
};

Digest128 StrongDigest(const void* data, size_t len);

}  // namespace bullet

#endif  // SRC_COMMON_HASH_H_
