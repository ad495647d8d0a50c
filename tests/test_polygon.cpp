// Polygon-triangulation tests: the engine's general k-term path against
// the textbook DP and an exhaustive triangulation enumerator.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/polygon/triangulation.hpp"
#include "common/rng.hpp"

namespace cellnpdp::polygon {
namespace {

// Exhaustive oracle: enumerate every triangulation of the fan interval
// [i, j] by recursion over the root triangle of edge (i, j).
double brute_best(const std::vector<Point>& pts, index_t i, index_t j) {
  if (j <= i + 1) return 0.0;
  double best = minplus_identity<double>();
  for (index_t k = i + 1; k < j; ++k)
    best = std::min(best, brute_best(pts, i, k) + brute_best(pts, k, j) +
                              perimeter(pts[static_cast<std::size_t>(i)],
                                        pts[static_cast<std::size_t>(k)],
                                        pts[static_cast<std::size_t>(j)]));
  return best;
}

TEST(Polygon, SquareHasTwoEquivalentDiagonals) {
  // Unit square: both diagonals give the same total perimeter.
  const std::vector<Point> sq{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  NpdpOptions opts;
  opts.block_side = 8;
  const auto r = triangulate(sq, opts);
  ASSERT_EQ(r.triangles.size(), 2u);
  // 2 triangles, each with legs 1,1 and the sqrt(2) diagonal shared.
  EXPECT_NEAR(r.cost, 2 * (2.0 + std::sqrt(2.0)), 1e-12);
}

TEST(Polygon, EngineMatchesTextbookReference) {
  for (index_t n : {3, 5, 12, 40, 90}) {
    const auto pts = random_convex_polygon(n, 100 + static_cast<std::uint64_t>(n));
    NpdpOptions opts;
    opts.block_side = 16;
    const auto r = triangulate(pts, opts);
    EXPECT_NEAR(r.cost, triangulate_reference(pts), 1e-9) << "n=" << n;
  }
}

TEST(Polygon, EngineMatchesExhaustiveEnumeration) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (index_t n : {4, 6, 8, 10}) {
      const auto pts = random_convex_polygon(n, seed);
      NpdpOptions opts;
      opts.block_side = 8;
      const auto r = triangulate(pts, opts);
      EXPECT_NEAR(r.cost, brute_best(pts, 0, n - 1), 1e-9)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Polygon, TracebackProducesAValidTriangulation) {
  const index_t n = 30;
  const auto pts = random_convex_polygon(n, 5);
  NpdpOptions opts;
  opts.block_side = 8;
  const auto r = triangulate(pts, opts);
  // An n-gon triangulation has exactly n-2 triangles whose perimeters sum
  // to the reported cost.
  ASSERT_EQ(r.triangles.size(), static_cast<std::size_t>(n - 2));
  double sum = 0;
  for (const auto& t : r.triangles) {
    EXPECT_LT(t.a, t.b);
    EXPECT_LT(t.b, t.c);
    sum += perimeter(pts[static_cast<std::size_t>(t.a)],
                     pts[static_cast<std::size_t>(t.b)],
                     pts[static_cast<std::size_t>(t.c)]);
  }
  EXPECT_NEAR(sum, r.cost, 1e-9);
}

TEST(Polygon, EdgeTableMatchesPerCallPerimeterBitForBit) {
  // The instance reads each edge length from its table; recomputing the
  // perimeter on every call must give the same table, byte for byte.
  for (index_t n : {3, 17, 90, 200}) {
    const auto pts =
        random_convex_polygon(n, 40 + static_cast<std::uint64_t>(n));
    const auto inst = triangulation_instance(pts);
    auto per_call = inst;
    per_call.kterm = [&pts](index_t i, index_t k, index_t j) {
      return perimeter(pts[static_cast<std::size_t>(i)],
                       pts[static_cast<std::size_t>(k)],
                       pts[static_cast<std::size_t>(j)]);
    };
    NpdpOptions opts;
    opts.block_side = 16;
    opts.threads = 2;
    const auto got = solve_blocked(inst, opts);
    const auto want = solve_blocked(per_call, opts);
    ASSERT_EQ(got.total_cells(), want.total_cells());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.total_cells()) *
                              sizeof(double)),
              0)
        << "n=" << n;
    EXPECT_EQ(triangulate(pts, opts).cost, want.at(0, n - 1)) << "n=" << n;
  }
}

TEST(Polygon, GeneralAndSeparableKTermsAreMutuallyExclusive) {
  const auto pts = random_convex_polygon(16, 1);
  auto inst = triangulation_instance(pts);
  double u[16] = {};
  inst.ku = inst.kv = inst.kw = u;
  NpdpOptions opts;
  opts.block_side = 8;
  EXPECT_THROW(solve_blocked(inst, opts), std::invalid_argument);
}

TEST(Polygon, DegenerateInputs) {
  NpdpOptions opts;
  opts.block_side = 8;
  EXPECT_EQ(triangulate({}, opts).triangles.size(), 0u);
  EXPECT_EQ(triangulate({{0, 0}, {1, 0}}, opts).triangles.size(), 0u);
  const auto tri = triangulate({{0, 0}, {1, 0}, {0, 1}}, opts);
  ASSERT_EQ(tri.triangles.size(), 1u);
  EXPECT_NEAR(tri.cost, 2.0 + std::sqrt(2.0), 1e-12);
}

}  // namespace
}  // namespace cellnpdp::polygon
