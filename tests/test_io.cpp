// Table serialization tests: bit-exact round trips, header validation,
// truncation handling, and checkpoint/resume of a real solve.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/rng.hpp"
#include "core/solve.hpp"
#include "io/table_io.hpp"
#include "layout/convert.hpp"

namespace cellnpdp {
namespace {

TEST(TableIo, TriangularRoundTripIsBitExact) {
  for (index_t n : {0, 1, 7, 64, 129}) {
    TriangularMatrix<double> t(n);
    t.fill([](index_t i, index_t j) {
      return random_init_value<double>(4, i, j);
    });
    std::stringstream ss;
    save_table(ss, t);
    const auto back = load_triangular<double>(ss);
    ASSERT_EQ(back.size(), n);
    EXPECT_EQ(max_abs_diff(t, back), 0.0) << "n=" << n;
  }
}

TEST(TableIo, BlockedRoundTripPreservesPaddingInfinities) {
  BlockedTriangularMatrix<float> b(100, 16);  // ragged edge: real padding
  b.fill([](index_t i, index_t j) { return float(i * 3 + j); });
  std::stringstream ss;
  save_table(ss, b);
  const auto back = load_blocked<float>(ss);
  ASSERT_EQ(back.size(), 100);
  ASSERT_EQ(back.block_side(), 16);
  // Compare raw storage (padding included).
  ASSERT_EQ(back.total_cells(), b.total_cells());
  EXPECT_EQ(std::memcmp(back.data(), b.data(),
                        static_cast<std::size_t>(b.total_cells()) *
                            sizeof(float)),
            0);
}

TEST(TableIo, RejectsBadMagicTypeAndTruncation) {
  TriangularMatrix<float> t(8);
  t.fill([](index_t, index_t) { return 1.0f; });
  std::stringstream ss;
  save_table(ss, t);
  const std::string bytes = ss.str();

  {
    std::stringstream bad("XXXX" + bytes.substr(4));
    EXPECT_THROW(load_triangular<float>(bad), std::runtime_error);
  }
  {
    std::stringstream wrong_type(bytes);
    EXPECT_THROW(load_triangular<double>(wrong_type), std::runtime_error);
  }
  {
    std::stringstream wrong_layout(bytes);
    EXPECT_THROW(load_blocked<float>(wrong_layout), std::runtime_error);
  }
  {
    std::stringstream truncated(bytes.substr(0, bytes.size() - 10));
    EXPECT_THROW(load_triangular<float>(truncated), std::runtime_error);
  }
}

TEST(TableIo, CheckpointedSolutionEqualsFreshSolve) {
  NpdpInstance<float> inst;
  inst.n = 96;
  inst.init = [](index_t i, index_t j) {
    return random_init_value<float>(12, i, j);
  };
  NpdpOptions opts;
  opts.block_side = 16;
  const auto solved = solve_blocked(inst, opts);

  std::stringstream ss;
  save_table(ss, solved);
  const auto restored = load_blocked<float>(ss);
  EXPECT_EQ(max_abs_diff(to_triangular(solved), to_triangular(restored)),
            0.0);
}

TEST(TableIo, Int32TablesSerialise) {
  TriangularMatrix<std::int32_t> t(20);
  t.fill([](index_t i, index_t j) {
    return static_cast<std::int32_t>(i * 1000 + j);
  });
  std::stringstream ss;
  save_table(ss, t);
  const auto back = load_triangular<std::int32_t>(ss);
  for (index_t i = 0; i < 20; ++i)
    for (index_t j = i; j < 20; ++j) EXPECT_EQ(back.at(i, j), t.at(i, j));
}

}  // namespace
}  // namespace cellnpdp
