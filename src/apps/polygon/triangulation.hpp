// Optimal convex-polygon triangulation — the classic NPDP with a
// non-factorable per-split cost (Grama et al.'s polyadic example family):
//
//   d[i][j] = min_{i<k<j} d[i][k] + d[k][j] + w(v_i, v_k, v_j)
//   d[i][i+1] = 0
//
// over the polygon's vertices, where w is the triangle's perimeter (any
// triangle cost works). This exercises the engine's *general* k-term path
// (scalar block products, since a functor cannot vectorise) and the split
// scan of core/traceback.hpp (each split k names the triangle (i, k, j)).
#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "core/reference.hpp"
#include "core/solve.hpp"
#include "core/traceback.hpp"

namespace cellnpdp::polygon {

struct Point {
  double x = 0, y = 0;
};

struct Triangle {
  index_t a = 0, b = 0, c = 0;  ///< vertex indices
};

struct TriangulationResult {
  double cost = 0;                  ///< summed triangle perimeters
  std::vector<Triangle> triangles;  ///< exactly n-2 for an n-gon
};

inline double dist(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

inline double perimeter(const Point& a, const Point& b, const Point& c) {
  return dist(a, b) + dist(b, c) + dist(c, a);
}

/// Engine instance over the polygon's n vertices. The edge lengths are
/// computed once, into the upper triangle of an n x n table the k-term
/// shares, so each relaxation is three loads.
inline NpdpInstance<double> triangulation_instance(
    const std::vector<Point>& pts) {
  NpdpInstance<double> inst;
  const index_t n = static_cast<index_t>(pts.size());
  inst.n = n;
  inst.init = [](index_t i, index_t j) {
    if (j <= i + 1) return 0.0;  // edges and vertices cost nothing
    return minplus_identity<double>();
  };
  const std::size_t side = pts.size();
  auto len = std::make_shared<std::vector<double>>(side * side);
  for (std::size_t i = 0; i < side; ++i)
    for (std::size_t j = i + 1; j < side; ++j)
      (*len)[i * side + j] = dist(pts[i], pts[j]);
  // perimeter(p_i, p_k, p_j) summed in its own order; dist(p_j, p_i) is
  // the (i, j) entry because hypot ignores the signs of its arguments.
  inst.kterm = [len, e = len->data(), n](index_t i, index_t k, index_t j) {
    return e[i * n + k] + e[k * n + j] + e[i * n + j];
  };
  return inst;
}

/// Minimal-perimeter triangulation under an ExecutionContext (cancellation
/// + deadline, tuning). On Cancelled `out` is left untouched and the
/// partial table is discarded.
inline SolveStatus triangulate(const std::vector<Point>& pts,
                               const ExecutionContext& ctx,
                               TriangulationResult* out) {
  if (pts.size() < 3) {
    *out = {};
    return SolveStatus::Ok;
  }
  const auto inst = triangulation_instance(pts);
  BlockedTriangularMatrix<double> table(inst.n, ctx.tuning.block_side);
  const SolveStatus st = solve_blocked_into(table, inst, ctx);
  if (st != SolveStatus::Ok) return st;
  out->cost = table.at(0, inst.n - 1);
  out->triangles.clear();
  visit_splits(table, inst, 0, inst.n - 1,
               [&](index_t i, index_t k, index_t j) {
                 out->triangles.push_back({i, k, j});
               });
  return SolveStatus::Ok;
}

/// Minimal-perimeter triangulation via the blocked engine (+ the split
/// scan for the triangle list).
inline TriangulationResult triangulate(const std::vector<Point>& pts,
                                       const NpdpOptions& opts) {
  TriangulationResult res;
  ExecutionContext ctx;
  ctx.tuning = opts;
  triangulate(pts, ctx, &res);
  return res;
}

/// Textbook O(n^3) reference.
inline double triangulate_reference(const std::vector<Point>& pts) {
  const index_t n = static_cast<index_t>(pts.size());
  if (n < 3) return 0.0;
  TriangularMatrix<double> d(n);
  for (index_t i = 0; i < n; ++i) d.at(i, i) = 0.0;
  for (index_t i = 0; i + 1 < n; ++i) d.at(i, i + 1) = 0.0;
  for (index_t span = 2; span < n; ++span)
    for (index_t i = 0; i + span < n; ++i) {
      const index_t j = i + span;
      double best = minplus_identity<double>();
      for (index_t k = i + 1; k < j; ++k)
        best = std::min(best, d.at(i, k) + d.at(k, j) +
                                  perimeter(pts[static_cast<std::size_t>(i)],
                                            pts[static_cast<std::size_t>(k)],
                                            pts[static_cast<std::size_t>(j)]));
      d.at(i, j) = best;
    }
  return d.at(0, n - 1);
}

/// Deterministic random convex polygon (points on a perturbed circle,
/// sorted by angle — convex for small radial noise).
std::vector<Point> random_convex_polygon(index_t n, std::uint64_t seed);

}  // namespace cellnpdp::polygon
