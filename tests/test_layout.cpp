// Layout module tests: triangular (previous works) and blocked (NDL).
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

TEST(Triangular, RowStartAndOffsetsArePackedContiguously) {
  TriangularMatrix<float> t(7);
  index_t expected = 0;
  for (index_t i = 0; i < 7; ++i) {
    EXPECT_EQ(t.row_start(i), expected);
    EXPECT_EQ(t.row_length(i), 7 - i);
    for (index_t j = i; j < 7; ++j) EXPECT_EQ(t.offset(i, j), expected++);
  }
  EXPECT_EQ(t.cell_count(), expected);
  EXPECT_EQ(t.cell_count(), triangle_cells(7));
}

TEST(Triangular, FillRoundTrips) {
  TriangularMatrix<double> t(23);
  t.fill([](index_t i, index_t j) { return double(i * 100 + j); });
  for (index_t i = 0; i < 23; ++i)
    for (index_t j = i; j < 23; ++j) EXPECT_EQ(t.at(i, j), double(i * 100 + j));
}

TEST(Triangular, RowsAreContiguousInMemory) {
  TriangularMatrix<float> t(12);
  for (index_t i = 0; i < 12; ++i)
    for (index_t j = i; j < 12; ++j)
      EXPECT_EQ(&t.at(i, j), t.row(i) + (j - i));
}

struct BlockedCase {
  index_t n;
  index_t bs;
};

class BlockedLayoutTest : public ::testing::TestWithParam<BlockedCase> {};

TEST_P(BlockedLayoutTest, FillRoundTripsAndPaddingIsIdentity) {
  const auto [n, bs] = GetParam();
  BlockedTriangularMatrix<float> b(n, bs);
  b.fill([](index_t i, index_t j) { return float(i * 1000 + j); });

  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j) EXPECT_EQ(b.at(i, j), float(i * 1000 + j));

  // Every cell not written by fill must still hold the (min,+) identity:
  // below-diagonal parts of diagonal blocks and the ragged edge.
  const index_t m = b.blocks_per_side();
  index_t padding_seen = 0;
  for (index_t bi = 0; bi < m; ++bi)
    for (index_t bj = bi; bj < m; ++bj) {
      const float* blk = b.block(bi, bj);
      for (index_t r = 0; r < bs; ++r)
        for (index_t c = 0; c < bs; ++c) {
          const index_t gi = bi * bs + r, gj = bj * bs + c;
          const bool in_triangle = gi <= gj && gj < n;
          if (!in_triangle) {
            EXPECT_TRUE(is_minplus_identity(blk[r * bs + c]))
                << "block(" << bi << "," << bj << ") cell " << r << "," << c;
            ++padding_seen;
          }
        }
    }
  EXPECT_EQ(padding_seen, b.total_cells() - triangle_cells(n));
}

TEST_P(BlockedLayoutTest, BlocksAreContiguousAndSequentiallyPacked) {
  const auto [n, bs] = GetParam();
  BlockedTriangularMatrix<float> b(n, bs);
  const index_t m = b.blocks_per_side();
  index_t expected_index = 0;
  for (index_t bi = 0; bi < m; ++bi)
    for (index_t bj = bi; bj < m; ++bj) {
      EXPECT_EQ(b.block_index(bi, bj), expected_index);
      EXPECT_EQ(b.block(bi, bj),
                b.data() + expected_index * b.cells_per_block());
      ++expected_index;
    }
  EXPECT_EQ(b.total_cells(), expected_index * b.cells_per_block());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedLayoutTest,
    ::testing::Values(BlockedCase{1, 4}, BlockedCase{4, 4}, BlockedCase{5, 4},
                      BlockedCase{16, 4}, BlockedCase{17, 8},
                      BlockedCase{31, 8}, BlockedCase{64, 16},
                      BlockedCase{70, 16}, BlockedCase{128, 64},
                      BlockedCase{100, 64}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_bs" +
             std::to_string(info.param.bs);
    });

TEST(LayoutConvert, RoundTripPreservesEveryCell) {
  for (index_t n : {1, 7, 33, 64, 100}) {
    TriangularMatrix<double> t(n);
    t.fill([](index_t i, index_t j) {
      return random_init_value<double>(42, i, j);
    });
    const auto b = to_blocked(t, 16);
    const auto t2 = to_triangular(b);
    EXPECT_EQ(max_abs_diff(t, t2), 0.0) << "n=" << n;
  }
}

TEST(LayoutConvert, BlockBytesMatchesPaperUnit) {
  // The paper's 32 KB memory block for floats corresponds to side ~90;
  // our power-of-two default 64 gives 16 KB, and 88/96 bracket 32 KB.
  BlockedTriangularMatrix<float> b64(256, 64);
  EXPECT_EQ(b64.block_bytes(), 64 * 64 * 4);
  BlockedTriangularMatrix<float> b88(256, 88);
  EXPECT_EQ(b88.block_bytes(), 88 * 88 * 4);
  EXPECT_NEAR(double(b88.block_bytes()), 32.0 * 1024, 2048);
}

long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(AlignedAllocator, FreedTablesLeaveNoResidentMemory) {
  // A small allocation made while a table is alive and kept after it dies
  // pins a heap-allocated table's pages; mapped tables go back at once.
  std::vector<std::unique_ptr<int>> kept;
  kept.reserve(8);
  const long start = resident_bytes();
  for (int i = 0; i < 8; ++i) {
    {
      BlockedTriangularMatrix<float> table(2048, 64);
      kept.push_back(std::make_unique<int>(i));
    }
    EXPECT_LE(resident_bytes() - start, 1L << 20) << "after table " << i;
  }
}

}  // namespace
}  // namespace cellnpdp
