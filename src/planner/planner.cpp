#include "planner/planner.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <unordered_map>

#include "machine/worker_pool.hpp"
#include "util/error.hpp"

namespace camb::planner {

namespace {

ShapeFacts make_shape_facts(const core::Shape& shape) {
  CAMB_CHECK_MSG(shape.n1 >= 1 && shape.n2 >= 1 && shape.n3 >= 1,
                 "shape dimensions must be >= 1");
  ShapeFacts facts;
  facts.sorted = core::sort_dims(shape);
  static_cast<core::BoundProducts&>(facts) = core::bound_products(
      static_cast<double>(facts.sorted.m), static_cast<double>(facts.sorted.n),
      static_cast<double>(facts.sorted.k));
  return facts;
}

/// The shared solver: both the service's cold path and plan_uncached call
/// this, so cached and uncached answers are the same bits by construction.
PlanResult plan_with(const core::Shape& shape, i64 P, const ShapeFacts& facts,
                     const std::vector<FactorTriple>& triples) {
  PlanResult result;
  result.grid = core::best_integer_grid_over(shape, triples);
  result.cost_words = core::alg1_cost_words(shape, result.grid);
  const core::BoundResult bound =
      core::memory_independent_bound_at(facts, static_cast<double>(P));
  result.regime = bound.regime;
  result.bound_words = bound.words;
  result.ratio =
      bound.words > 0 ? result.cost_words / bound.words : 1.0;
  result.real =
      core::optimal_grid_real(facts.m, facts.n, facts.k, static_cast<double>(P));
  core::Grid3 exact;
  result.exact_grid =
      core::try_exact_optimal_grid(shape, P, &exact) && exact == result.grid;
  return result;
}

int resolve_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

PlanResult plan_uncached(const PlanRequest& req) {
  CAMB_CHECK_MSG(req.P >= 1, "P must be >= 1");
  const ShapeFacts facts = make_shape_facts(req.shape);
  return plan_with(req.shape, req.P, facts, factor_triples(req.P));
}

GridPlanner::GridPlanner(const Config& config)
    : points_(config.point_capacity),
      atmost_(config.atmost_capacity),
      shapes_(config.shape_capacity) {}

GridPlanner& GridPlanner::instance() {
  static GridPlanner planner;
  return planner;
}

ShapeFacts GridPlanner::shape_facts(const core::Shape& shape) {
  const ShapeKey key{shape.n1, shape.n2, shape.n3};
  return shapes_.get_or_fill(key, [&] { return make_shape_facts(shape); });
}

PlanResult GridPlanner::plan(const PlanRequest& req) {
  CAMB_CHECK_MSG(req.P >= 1, "P must be >= 1");
  const PointKey key{req.shape.n1, req.shape.n2, req.shape.n3, req.P};
  return points_.get_or_fill(key, [&] {
    const ShapeFacts facts = shape_facts(req.shape);
    const auto table = FactorCache::instance().get(req.P);
    return plan_with(req.shape, req.P, facts, table->triples);
  });
}

std::vector<PlanResult> GridPlanner::plan_batch(
    const std::vector<PlanRequest>& reqs, int threads) {
  batch_queries_.fetch_add(reqs.size(), std::memory_order_relaxed);
  // Validate everything up front: worker tasks must not throw.
  for (const PlanRequest& req : reqs) {
    CAMB_CHECK_MSG(req.P >= 1, "P must be >= 1");
    CAMB_CHECK_MSG(req.shape.n1 >= 1 && req.shape.n2 >= 1 && req.shape.n3 >= 1,
                   "shape dimensions must be >= 1");
  }

  // Dedupe: each distinct (shape, P) is solved once; repeats are scattered
  // from the unique answer.
  struct UniqueQuery {
    PlanRequest req;
    PlanResult result;
  };
  std::vector<UniqueQuery> unique;
  unique.reserve(reqs.size());
  std::unordered_map<PointKey, std::size_t, PointKeyHash> index;
  index.reserve(reqs.size());
  for (const PlanRequest& req : reqs) {
    const PointKey key{req.shape.n1, req.shape.n2, req.shape.n3, req.P};
    const auto [it, inserted] = index.emplace(key, unique.size());
    if (inserted) unique.push_back({req, {}});
  }
  batch_deduped_.fetch_add(reqs.size() - unique.size(),
                           std::memory_order_relaxed);

  // Ascending P groups queries sharing a factor table onto nearby indices,
  // so a cold cache fills each enumeration once before its siblings need it.
  std::sort(unique.begin(), unique.end(),
            [](const UniqueQuery& a, const UniqueQuery& b) {
              return std::tie(a.req.P, a.req.shape.n1, a.req.shape.n2,
                              a.req.shape.n3) <
                     std::tie(b.req.P, b.req.shape.n1, b.req.shape.n2,
                              b.req.shape.n3);
            });
  std::unordered_map<PointKey, std::size_t, PointKeyHash> sorted_index;
  sorted_index.reserve(unique.size());
  for (std::size_t i = 0; i < unique.size(); ++i) {
    const PlanRequest& req = unique[i].req;
    sorted_index.emplace(PointKey{req.shape.n1, req.shape.n2, req.shape.n3,
                                  req.P},
                         i);
  }

  const int width = std::max(
      1, std::min(resolve_threads(threads), static_cast<int>(unique.size())));
  std::exception_ptr failure;
  std::mutex failure_mutex;
  const auto solve_range = [&](int worker) {
    // Contiguous slices keep each worker on one run of ascending P.
    const std::size_t begin = unique.size() * worker / width;
    const std::size_t end = unique.size() * (worker + 1) / width;
    try {
      for (std::size_t i = begin; i < end; ++i) {
        unique[i].result = plan(unique[i].req);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };
  if (width == 1) {
    solve_range(0);
  } else {
    WorkerPool::instance().run(width, solve_range);
  }
  if (failure) std::rethrow_exception(failure);

  std::vector<PlanResult> results(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const PlanRequest& req = reqs[i];
    const PointKey key{req.shape.n1, req.shape.n2, req.shape.n3, req.P};
    results[i] = unique[sorted_index.at(key)].result;
  }
  return results;
}

core::Grid3 GridPlanner::best_integer_grid_at_most(const core::Shape& shape,
                                                   i64 max_procs) {
  CAMB_CHECK_MSG(max_procs >= 1, "max_procs must be >= 1");
  const PointKey key{shape.n1, shape.n2, shape.n3, max_procs};
  return atmost_.get_or_fill(key, [&] {
    // `held` pins the most recent table so the returned reference satisfies
    // the TripleSource "valid until next call" contract under concurrent
    // eviction.
    std::shared_ptr<const FactorTable> held;
    return core::best_integer_grid_at_most_over(
        shape, max_procs, [&held](i64 p) -> const std::vector<FactorTriple>& {
          held = FactorCache::instance().get(p);
          return held->triples;
        });
  });
}

SweepResult GridPlanner::plan_sweep(const core::Shape& shape,
                                    const std::vector<i64>& Ps,
                                    const SweepOptions& opts) {
  const ShapeFacts facts = shape_facts(shape);
  SweepResult out;
  out.boundary_1d = facts.boundary_1d;
  out.boundary_2d = facts.boundary_2d;
  out.points.reserve(Ps.size());
  for (const i64 P : Ps) {
    CAMB_CHECK_MSG(P >= 1, "sweep processor counts must be >= 1");
    SweepPoint pt;
    pt.P = P;
    const core::BoundResult bound =
        core::memory_independent_bound_at(facts, static_cast<double>(P));
    pt.regime = bound.regime;
    pt.bound_words = bound.words;
    pt.real = core::optimal_grid_real(facts.m, facts.n, facts.k,
                                      static_cast<double>(P));
    if (opts.with_integer_grids) {
      const PlanResult plan_result = plan({shape, P});
      pt.grid = plan_result.grid;
      pt.cost_words = plan_result.cost_words;
      pt.ratio = plan_result.ratio;
    }
    if (out.segments.empty() || out.segments.back().regime != pt.regime) {
      out.segments.push_back({pt.regime, P, P});
    } else {
      out.segments.back().p_hi = P;
    }
    out.points.push_back(pt);
  }
  sweep_points_.fetch_add(Ps.size(), std::memory_order_relaxed);
  return out;
}

PlannerStats GridPlanner::stats() const {
  PlannerStats stats;
  stats.point = points_.counters();
  stats.atmost = atmost_.counters();
  stats.shape = shapes_.counters();
  stats.factor = FactorCache::instance().counters();
  stats.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  stats.batch_deduped = batch_deduped_.load(std::memory_order_relaxed);
  stats.sweep_points = sweep_points_.load(std::memory_order_relaxed);
  return stats;
}

void GridPlanner::clear() {
  points_.clear();
  atmost_.clear();
  shapes_.clear();
  batch_queries_.store(0, std::memory_order_relaxed);
  batch_deduped_.store(0, std::memory_order_relaxed);
  sweep_points_.store(0, std::memory_order_relaxed);
}

}  // namespace camb::planner
