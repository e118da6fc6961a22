#include "matmul/algorithm_registry.hpp"

#include "core/grid.hpp"
#include "planner/planner.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace camb::mm {

namespace {

/// The eq. 3 optimal grid via the planner service (bit-identical to
/// core::best_integer_grid; sweeps re-planning the same (shape, P) hit the
/// process-wide memo instead of re-enumerating factor triples).
core::Grid3 planned_grid(const Shape& shape, i64 nprocs) {
  return planner::GridPlanner::instance().plan({shape, nprocs}).grid;
}

bool is_square_p(i64 nprocs) {
  const i64 g = isqrt(nprocs);
  return g * g == nprocs;
}

/// Largest replication depth c with c | g, g*g*c = P, c > 1; 0 if none.
i64 best_25d_depth(i64 nprocs) {
  for (i64 c = 8; c >= 2; --c) {
    if (nprocs % c != 0) continue;
    const i64 gsq = nprocs / c;
    const i64 g = isqrt(gsq);
    if (g * g == gsq && g % c == 0) return c;
  }
  return 0;
}

/// Assemble an entry from its options-taking runner: the legacy bool-verify
/// `run` is derived from `run_opts` so the two can never diverge.
AlgorithmInfo make_algorithm(
    std::string name,
    std::function<bool(const Shape&, i64)> supports,
    std::function<RunReport(const Shape&, i64, const RunOptions&)> run_opts,
    bool bandwidth_optimal) {
  AlgorithmInfo info;
  info.name = std::move(name);
  info.supports = std::move(supports);
  info.run_opts = std::move(run_opts);
  info.run = [run = info.run_opts](const Shape& shape, i64 nprocs,
                                   bool verify) {
    return run(shape, nprocs,
               RunOptions::verified(verify ? VerifyMode::kReference
                                           : VerifyMode::kNone));
  };
  info.bandwidth_optimal = bandwidth_optimal;
  return info;
}

std::vector<AlgorithmInfo> build_registry() {
  std::vector<AlgorithmInfo> algorithms;

  algorithms.push_back(make_algorithm(
      "grid3d_optimal",
      [](const Shape&, i64) { return true; },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        const core::Grid3 grid = planned_grid(shape, nprocs);
        return run_grid3d(Grid3dConfig{shape, grid}, opts);
      },
      /*bandwidth_optimal=*/true));

  algorithms.push_back(make_algorithm(
      "grid3d_agarwal95",
      [](const Shape&, i64) { return true; },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        const core::Grid3 grid = planned_grid(shape, nprocs);
        return run_grid3d_agarwal(Grid3dAgarwalConfig{shape, grid}, opts);
      },
      /*bandwidth_optimal=*/true));

  algorithms.push_back(make_algorithm(
      "grid3d_staged4",
      [](const Shape&, i64) { return true; },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        const core::Grid3 grid = planned_grid(shape, nprocs);
        return run_grid3d_staged(Grid3dStagedConfig{shape, grid, 4}, opts);
      },
      /*bandwidth_optimal=*/true));

  algorithms.push_back(make_algorithm(
      "carma",
      [](const Shape& shape, i64 nprocs) {
        int levels = 0;
        while ((i64{1} << levels) < nprocs) ++levels;
        return (i64{1} << levels) == nprocs &&
               carma_supported(shape, levels);
      },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        int levels = 0;
        while ((i64{1} << levels) < nprocs) ++levels;
        return run_carma(CarmaConfig{shape, levels}, opts);
      },
      /*bandwidth_optimal=*/false));

  algorithms.push_back(make_algorithm(
      "summa",
      [](const Shape&, i64 nprocs) { return is_square_p(nprocs); },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        return run_summa(SummaConfig{shape, isqrt(nprocs)}, opts);
      },
      /*bandwidth_optimal=*/false));

  algorithms.push_back(make_algorithm(
      "summa_abft",
      [](const Shape&, i64 nprocs) {
        return is_square_p(nprocs) && isqrt(nprocs) >= 2;
      },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        return run_summa_abft(SummaAbftConfig{SummaConfig{shape, isqrt(nprocs)}},
                              opts);
      },
      /*bandwidth_optimal=*/false));

  algorithms.push_back(make_algorithm(
      "grid3d_abft",
      [](const Shape& shape, i64 nprocs) {
        // The parity fiber needs at least two members to tolerate a loss.
        return planned_grid(shape, nprocs).p2 >= 2;
      },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        const core::Grid3 grid = planned_grid(shape, nprocs);
        return run_grid3d_abft(Grid3dAbftConfig{Grid3dConfig{shape, grid}},
                               opts);
      },
      /*bandwidth_optimal=*/false));

  algorithms.push_back(make_algorithm(
      "cannon",
      [](const Shape&, i64 nprocs) { return is_square_p(nprocs); },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        return run_cannon(CannonConfig{shape, isqrt(nprocs)}, opts);
      },
      /*bandwidth_optimal=*/false));

  algorithms.push_back(make_algorithm(
      "alg25d",
      [](const Shape&, i64 nprocs) { return best_25d_depth(nprocs) > 0; },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        const i64 c = best_25d_depth(nprocs);
        return run_alg25d(Alg25dConfig{shape, isqrt(nprocs / c), c}, opts);
      },
      /*bandwidth_optimal=*/false));

  // The elastic entries run the base algorithm with the elastic switch on,
  // through the shrink-and-regrid driver (matmul/elastic.hpp).  Registered
  // so the golden equivalence sweep and the chaos matrix pick them up: a
  // clean elastic run is word-identical to the base entry (the
  // enlist/confirm probes are zero-word), though its output hash pins the
  // integer-valued input pattern that keeps C bit-stable across regrids.
  algorithms.push_back(make_algorithm(
      "summa_elastic",
      [](const Shape&, i64 nprocs) { return is_square_p(nprocs); },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        RunOptions eopts = opts;
        eopts.elastic.enabled = true;
        return run_summa(SummaConfig{shape, isqrt(nprocs)}, eopts);
      },
      /*bandwidth_optimal=*/false));

  algorithms.push_back(make_algorithm(
      "grid3d_elastic",
      [](const Shape&, i64) { return true; },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        const core::Grid3 grid = planned_grid(shape, nprocs);
        RunOptions eopts = opts;
        eopts.elastic.enabled = true;
        return run_grid3d(Grid3dConfig{shape, grid}, eopts);
      },
      /*bandwidth_optimal=*/true));

  algorithms.push_back(make_algorithm(
      "alg25d_elastic",
      [](const Shape&, i64 nprocs) { return best_25d_depth(nprocs) > 0; },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        const i64 c = best_25d_depth(nprocs);
        RunOptions eopts = opts;
        eopts.elastic.enabled = true;
        return run_alg25d(Alg25dConfig{shape, isqrt(nprocs / c), c}, eopts);
      },
      /*bandwidth_optimal=*/false));

  algorithms.push_back(make_algorithm(
      "naive_bcast",
      [](const Shape&, i64) { return true; },
      [](const Shape& shape, i64 nprocs, const RunOptions& opts) {
        return run_naive_bcast(NaiveBcastConfig{shape}, nprocs, opts);
      },
      /*bandwidth_optimal=*/false));

  return algorithms;
}

}  // namespace

const std::vector<AlgorithmInfo>& algorithm_registry() {
  static const std::vector<AlgorithmInfo> registry = build_registry();
  return registry;
}

const AlgorithmInfo& algorithm_by_name(const std::string& name) {
  for (const auto& algorithm : algorithm_registry()) {
    if (algorithm.name == name) return algorithm;
  }
  throw Error("unknown algorithm: " + name);
}

}  // namespace camb::mm
