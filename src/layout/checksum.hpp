// Per-memory-block checksums: the detection half of block-granular
// recovery. After a block is relaxed, record() hashes its bytes; verify()
// later recomputes and compares, catching torn or corrupted writes (the
// software analogue of a DMA that completed partially or scribbled — the
// failure mode the Cell's per-SPE local stores made a first-class concern).
// The hash compares exact bit patterns, so a single flipped mantissa bit
// is caught; no tolerance, because the blocked schedule is deterministic
// and a clean re-run is bit-identical.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "layout/blocked.hpp"

namespace cellnpdp {

/// FNV-1a processed a 64-bit word at a time (byte-serial FNV makes the
/// checksum pass cost ~15% of a solve; word-wise it is ~2%). Only ever
/// compared against itself — record() vs verify() — so it needs to be
/// deterministic and sensitive to any flipped bit, not standard.
inline std::uint64_t fnv1a(const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= 0x100000001B3ull;
  }
  for (; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

/// One checksum slot per in-triangle memory block, indexed exactly like
/// the matrix's block storage.
template <class T>
class BlockChecksums {
 public:
  explicit BlockChecksums(const BlockedTriangularMatrix<T>& mat)
      : mat_(mat),
        sums_(static_cast<std::size_t>(triangle_cells(mat.blocks_per_side())),
              0) {}

  void record(index_t bi, index_t bj) {
    sums_[slot(bi, bj)] = hash_block(bi, bj);
  }

  bool verify(index_t bi, index_t bj) const {
    return sums_[slot(bi, bj)] == hash_block(bi, bj);
  }

 private:
  std::size_t slot(index_t bi, index_t bj) const {
    return static_cast<std::size_t>(mat_.block_index(bi, bj));
  }
  std::uint64_t hash_block(index_t bi, index_t bj) const {
    return fnv1a(mat_.block(bi, bj),
                 static_cast<std::size_t>(mat_.block_bytes()));
  }

  const BlockedTriangularMatrix<T>& mat_;
  std::vector<std::uint64_t> sums_;
};

}  // namespace cellnpdp
