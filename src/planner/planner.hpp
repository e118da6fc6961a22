// planner.hpp — the grid-planner query engine: "optimal grid + bound" as a
// long-lived, thread-safe service.
//
// The analytic core answers the paper's central question — the best
// (p1,p2,p3) grid and the Theorem 3 memory-independent bound for any
// (n1,n2,n3,P) — but each call re-enumerates the factor triples of P and
// re-derives the per-shape regime structure from scratch.  This module
// memoizes all three layers behind one service object:
//
//   * FactorCache        — divisors + factor triples keyed by P (shared
//                          with elastic shrink-and-regrid re-planning);
//   * shape-facts cache  — per-aspect-ratio sorted dims, cached products,
//                          and the strong-scaling regime boundaries
//                          P1 = m/n and P2 = mn/k^2 of Ballard et al.
//                          (arXiv:1202.3177), so classifying a point query
//                          is two comparisons and evaluating Theorem 3 is a
//                          handful of flops on cached products;
//   * point caches       — solved (shape, P) plans and (shape, <=P) elastic
//                          re-plans, so repeated and skewed query mixes hit
//                          a sharded hash lookup.
//
// Correctness bar: every answer is bit-identical to the memo-free path
// (core::best_integer_grid / exact_optimal_grid / Theorem 3).  Cached plans
// are replays of plan_uncached computations; memoized enumerations feed the
// SAME search loop in the SAME order (core::best_integer_grid_over); the
// cached bound evaluation mirrors core/bounds.cpp expression-for-expression
// (see bound_at in planner.cpp).  tests/test_planner.cpp and
// bench_planner_qps prove the identity over randomized sweeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/bounds.hpp"
#include "core/cost_eq3.hpp"
#include "core/grid.hpp"
#include "planner/factor_cache.hpp"
#include "planner/sharded_cache.hpp"

namespace camb::planner {

/// One point query: the best grid and bound for multiplying an n1×n2 by an
/// n2×n3 matrix on P processors.
struct PlanRequest {
  core::Shape shape;
  i64 P = 1;

  bool operator==(const PlanRequest&) const = default;
};

/// The solved plan.  Bit-identical to the uncached path by construction.
struct PlanResult {
  core::Grid3 grid;            ///< best integer grid (eq. 3 argmin)
  double cost_words = 0;       ///< eq. 3 words of `grid`
  core::RegimeCase regime = core::RegimeCase::kThreeD;  ///< Theorem 3 case
  double bound_words = 0;      ///< Theorem 3 memory-independent bound
  double ratio = 1;            ///< cost / bound (1 when the bound is 0)
  core::RealGrid real;         ///< §5.2 real-valued optimal grid
  bool exact_grid = false;     ///< real grid integral AND equal to `grid`

  bool operator==(const PlanResult&) const = default;
};

/// Cached per-shape structure: the sorted dims and the Theorem 3 products
/// (core::BoundProducts, including the strong-scaling regime boundaries of
/// arXiv:1202.3177: crossing P1 moves 1D→2D, crossing P2 moves 2D→3D), so
/// core::memory_independent_bound_at answers every P from the cache.
struct ShapeFacts : core::BoundProducts {
  core::SortedDims sorted;
};

/// One maximal run of consecutive sweep points sharing a regime.
struct RegimeSegment {
  core::RegimeCase regime = core::RegimeCase::kThreeD;
  i64 p_lo = 1;
  i64 p_hi = 1;
};

/// One strong-scaling sweep point (integer-grid channel optional).
struct SweepPoint {
  i64 P = 1;
  core::RegimeCase regime = core::RegimeCase::kThreeD;
  double bound_words = 0;
  core::RealGrid real;
  core::Grid3 grid;
  double cost_words = 0;
  double ratio = 1;
};

struct SweepOptions {
  /// Also solve the integer grid per point (rides the point/factor caches).
  /// Off, the sweep is pure closed-form segment evaluation.
  bool with_integer_grids = true;
};

struct SweepResult {
  double boundary_1d = 1;  ///< P1 crossing (1D→2D)
  double boundary_2d = 1;  ///< P2 crossing (2D→3D)
  std::vector<RegimeSegment> segments;
  std::vector<SweepPoint> points;
};

/// Aggregate cache / traffic statistics of one planner.
struct PlannerStats {
  CacheCounters point;   ///< solved (shape, P) plans
  CacheCounters atmost;  ///< solved (shape, <=P) elastic re-plans
  CacheCounters shape;   ///< shape-facts / regime-boundary entries
  CacheCounters factor;  ///< process-wide divisor/triple tables
  std::uint64_t batch_queries = 0;  ///< queries received via plan_batch
  std::uint64_t batch_deduped = 0;  ///< of those, answered by batch dedup
  std::uint64_t sweep_points = 0;   ///< points answered via plan_sweep
};

/// The memo-free reference path: exactly what the service must reproduce
/// bit-for-bit.  Tests and the bench use it as the oracle; the service's
/// cold path shares its solver so the identity holds by construction.
PlanResult plan_uncached(const PlanRequest& req);

/// The long-lived, thread-safe query engine.  All methods may be called
/// concurrently; answers are deterministic regardless of interleaving.
class GridPlanner {
 public:
  struct Config {
    std::size_t point_capacity = 1 << 20;
    std::size_t atmost_capacity = 1 << 16;
    std::size_t shape_capacity = 1 << 16;
  };

  GridPlanner() : GridPlanner(Config{}) {}
  explicit GridPlanner(const Config& config);

  /// The process-wide planner (the CLI service, the registry, and elastic
  /// re-planning all share it, so their traffic warms one cache).
  static GridPlanner& instance();

  /// Answer one point query (sharded memo; cold queries solve and store).
  PlanResult plan(const PlanRequest& req);

  /// Answer a batch: dedupes repeated requests, groups shared enumerations
  /// by ascending P, and fans the unique solves across the machine
  /// WorkerPool (`threads` <= 0 picks the hardware width).  Results are in
  /// request order and bit-identical to per-request plan() calls.
  std::vector<PlanResult> plan_batch(const std::vector<PlanRequest>& reqs,
                                     int threads = 0);

  /// Memoized elastic re-plan: core::best_integer_grid_at_most through the
  /// factor cache (the shrink-and-regrid path calls this on every survivor).
  core::Grid3 best_integer_grid_at_most(const core::Shape& shape,
                                        i64 max_procs);

  /// Strong-scaling range sweep over the given processor counts: regimes
  /// come from the cached arXiv:1202.3177 boundary crossings and Theorem 3
  /// from cached products (no per-P re-derivation); integer grids, when
  /// requested, ride the point/factor caches.
  SweepResult plan_sweep(const core::Shape& shape, const std::vector<i64>& Ps,
                         const SweepOptions& opts = {});

  /// The cached per-shape structure (fills on first use).
  ShapeFacts shape_facts(const core::Shape& shape);

  PlannerStats stats() const;

  /// Drop every cached entry and zero the planner-local counters (the
  /// process-wide FactorCache is shared and survives; tests clear it
  /// directly when they need cold factor tables).
  void clear();

 private:
  struct PointKey {
    i64 n1 = 1, n2 = 1, n3 = 1, p = 1;

    bool operator==(const PointKey&) const = default;
  };
  struct PointKeyHash {
    std::size_t operator()(const PointKey& key) const {
      std::uint64_t h = mix64(static_cast<std::uint64_t>(key.n1));
      h = mix64(h ^ static_cast<std::uint64_t>(key.n2));
      h = mix64(h ^ static_cast<std::uint64_t>(key.n3));
      h = mix64(h ^ static_cast<std::uint64_t>(key.p));
      return static_cast<std::size_t>(h);
    }
  };
  struct ShapeKey {
    i64 n1 = 1, n2 = 1, n3 = 1;

    bool operator==(const ShapeKey&) const = default;
  };
  struct ShapeKeyHash {
    std::size_t operator()(const ShapeKey& key) const {
      std::uint64_t h = mix64(static_cast<std::uint64_t>(key.n1));
      h = mix64(h ^ static_cast<std::uint64_t>(key.n2));
      h = mix64(h ^ static_cast<std::uint64_t>(key.n3));
      return static_cast<std::size_t>(h);
    }
  };

  ShardedCache<PointKey, PlanResult, PointKeyHash> points_;
  ShardedCache<PointKey, core::Grid3, PointKeyHash> atmost_;
  ShardedCache<ShapeKey, ShapeFacts, ShapeKeyHash> shapes_;
  std::atomic<std::uint64_t> batch_queries_{0};
  std::atomic<std::uint64_t> batch_deduped_{0};
  std::atomic<std::uint64_t> sweep_points_{0};
};

}  // namespace camb::planner
