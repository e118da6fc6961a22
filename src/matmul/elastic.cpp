#include "matmul/elastic.hpp"

#include <algorithm>
#include <limits>

#include "machine/faults.hpp"
#include "planner/planner.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

i64 elastic_shrink_recv_words_exact(int nprocs, int max_failures,
                                    int pre_failures) {
  const i64 alive = nprocs - pre_failures;
  if (alive <= 1) return 0;
  // Round 0 floods to the full membership, but only alive peers deliver;
  // later rounds flood among the discovered-alive only.  Either way each
  // participant takes (alive - 1) views of 2 ceil(P/32) mask words per round.
  return static_cast<i64>(max_failures + 1) * (alive - 1) * 2 *
         ((nprocs + 31) / 32);
}

namespace {

/// Append the spans of a chunk — a fiber chunk or a whole block: the
/// block-flat window [flat_start, flat_start + flat_size) of the rows×cols
/// block at (row0, col0) of a matrix with `ncols` columns, row by row,
/// coalescing spans that happen to be contiguous (whole-width blocks
/// collapse to one span).  Ascending block-flat order is ascending global
/// row-major order, which is what makes the chunk's local storage a
/// PanelSet holding.
void append_chunk_spans(coll::PanelSet& set, int matrix, const BlockChunk& ch,
                        i64 ncols) {
  const i64 lo = ch.flat_start, hi = ch.flat_start + ch.flat_size;
  for (i64 r = 0; r < ch.rows; ++r) {
    const i64 row_lo = r * ch.cols, row_hi = row_lo + ch.cols;
    const i64 a = std::max(lo, row_lo), b = std::min(hi, row_hi);
    if (a >= b) continue;
    const i64 start = (ch.row0 + r) * ncols + ch.col0 + (a - row_lo);
    if (!set.empty() && set.back().matrix == matrix &&
        set.back().end() == start) {
      set.back().len += b - a;
    } else {
      set.push_back({matrix, start, b - a});
    }
  }
}

SummaConfig summa_plan_at(const SummaConfig& base, i64 max_procs) {
  CAMB_CHECK_MSG(max_procs >= 1, "elastic re-plan needs at least one rank");
  SummaConfig ncfg = base;
  ncfg.g = std::max<i64>(1, isqrt(max_procs));
  return ncfg;
}

Grid3dConfig grid3d_plan_at(const Grid3dConfig& base, i64 max_procs) {
  CAMB_CHECK_MSG(max_procs >= 1, "elastic re-plan needs at least one rank");
  Grid3dConfig ncfg = base;
  // Through the planner service: every survivor of the same failure re-plans
  // the same (shape, P′), so the memoized search answers all but the first.
  ncfg.grid =
      planner::GridPlanner::instance().best_integer_grid_at_most(base.shape,
                                                                 max_procs);
  return ncfg;
}

Alg25dConfig alg25d_plan_at(const Alg25dConfig& base, i64 max_procs) {
  CAMB_CHECK_MSG(max_procs >= 1, "elastic re-plan needs at least one rank");
  // Same scoring rule as core::best_integer_grid_at_most: 2.5D words plus
  // the γ/β compute share, so the search cannot collapse to one rank just
  // because a single rank moves zero words.
  const double flops = 2.0 * static_cast<double>(base.shape.n1) *
                       static_cast<double>(base.shape.n2) *
                       static_cast<double>(base.shape.n3);
  Alg25dConfig best = base;
  best.g = 1;
  best.c = 1;
  double best_cost = std::numeric_limits<double>::infinity();
  i64 best_total = 0;
  for (i64 g = 1; g * g <= max_procs; ++g) {
    for (i64 c = 1; c <= g && g * g * c <= max_procs; ++c) {
      if (g % c != 0) continue;
      Alg25dConfig cand = base;
      cand.g = g;
      cand.c = c;
      const i64 total = g * g * c;
      const double cost = alg25d_cost_words(cand) +
                          core::kPlanGammaOverBeta * flops /
                              static_cast<double>(total);
      // Lowest score; ties to more ranks; iteration order makes the first
      // full tie the lexicographically smallest (g, c).
      if (cost < best_cost || (cost == best_cost && total > best_total)) {
        best = cand;
        best_cost = cost;
        best_total = total;
      }
    }
  }
  return best;
}

coll::PanelSet summa_panels(const SummaConfig& cfg, int logical) {
  coll::PanelSet set;
  const i64 g = cfg.g;
  if (logical < 0 || logical >= g * g) return set;
  const i64 i = logical / g, j = logical % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  append_chunk_spans(set, 0, full_block(d1, i, d2, j), cfg.shape.n2);
  append_chunk_spans(set, 1, full_block(d2, i, d3, j), cfg.shape.n3);
  return set;
}

coll::PanelSet grid3d_panels(const Grid3dConfig& cfg, int logical) {
  coll::PanelSet set;
  if (logical < 0 || logical >= cfg.grid.total()) return set;
  const Grid3dLayout layout = grid3d_layout(cfg, logical);
  append_chunk_spans(set, 0, layout.a, cfg.shape.n2);
  append_chunk_spans(set, 1, layout.b, cfg.shape.n3);
  return set;
}

coll::PanelSet alg25d_panels(const Alg25dConfig& cfg, int logical) {
  // Ranks are layer-major, so layer 0 — the one input copy — is logical
  // ranks [0, g²), holding SUMMA's g×g tiles.
  if (logical >= cfg.g * cfg.g) return {};
  return summa_panels(SummaConfig{cfg.shape, cfg.g}, logical);
}

}  // namespace

ElasticFacts<SummaConfig> elastic_facts(const SummaConfig&) {
  return {summa_plan_at,
          [](const SummaConfig& c) { return core::Grid3{c.g, c.g, 1}; },
          summa_panels, summa_predicted_recv_words};
}

ElasticFacts<Grid3dConfig> elastic_facts(const Grid3dConfig&) {
  return {grid3d_plan_at, [](const Grid3dConfig& c) { return c.grid; },
          grid3d_panels, grid3d_predicted_recv_words};
}

ElasticFacts<Alg25dConfig> elastic_facts(const Alg25dConfig&) {
  return {alg25d_plan_at,
          [](const Alg25dConfig& c) { return core::Grid3{c.c, c.g, c.g}; },
          alg25d_panels, alg25d_predicted_recv_words};
}

bool elastic_probe_round(const coll::Comm& comm, PhaseId phase, int tag) {
  RankCtx& ctx = comm.ctx();
  ctx.set_phase(phase);
  const int me = comm.my_index();
  for (int s = 0; s < comm.size(); ++s) {
    if (s != me) comm.send(s, tag, Buffer{});
  }
  // All peers are drained even after a miss so healthy probes never linger
  // as debris.
  bool ok = true;
  constexpr double kForever = std::numeric_limits<double>::infinity();
  for (int s = 0; s < comm.size(); ++s) {
    if (s == me) continue;
    if (!ctx.recv_timed(comm.rank_at(s), tag, kForever)) ok = false;
  }
  return ok;
}

template <typename T>
coll::RegridFill<T> elastic_fill(const Shape& shape, bool integer_inputs) {
  // A whole-matrix chunk window over A (n1×n2) or B (n2×n3).
  return [shape, integer_inputs](int matrix, i64 start, i64 len, T* out) {
    BlockChunk chunk;
    chunk.row0 = 0;
    chunk.col0 = 0;
    chunk.rows = matrix == 0 ? shape.n1 : shape.n2;
    chunk.cols = matrix == 0 ? shape.n2 : shape.n3;
    chunk.flat_start = start;
    chunk.flat_size = len;
    const std::vector<T> vals = fill_chunk_pattern<T>(chunk, integer_inputs);
    std::copy(vals.begin(), vals.end(), out);
  };
}

template <typename T>
std::vector<T> elastic_panel_values(const coll::RegridFill<T>& fill,
                                    const coll::PanelSet& panels, int matrix) {
  i64 total = 0;
  for (const coll::PanelSpan& s : panels) {
    if (s.matrix == matrix) total += s.len;
  }
  std::vector<T> out(static_cast<std::size_t>(total));
  i64 off = 0;
  for (const coll::PanelSpan& s : panels) {
    if (s.matrix != matrix) continue;
    fill(matrix, s.start, s.len, out.data() + off);
    off += s.len;
  }
  return out;
}

#define CAMB_INSTANTIATE(T)                                               \
  template coll::RegridFill<T> elastic_fill<T>(const Shape&, bool);       \
  template std::vector<T> elastic_panel_values<T>(                        \
      const coll::RegridFill<T>&, const coll::PanelSet&, int);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

template <typename Config>
ElasticPrediction elastic_prediction(const Config& base,
                                     const ElasticConfig& ecfg,
                                     const std::vector<int>& failed,
                                     int nprocs, double width_words) {
  const ElasticFacts<Config> facts = elastic_facts(base);
  CAMB_CHECK_MSG(facts.grid_of(base).total() == nprocs,
                 "elastic prediction: base grid must cover the machine");
  ElasticPrediction pred;
  pred.rank_recv_words.assign(static_cast<std::size_t>(nprocs), 0.0);
  pred.rank_migration_words.assign(static_cast<std::size_t>(nprocs), 0.0);
  pred.rank_exec_words.assign(static_cast<std::size_t>(nprocs), 0.0);
  if (failed.empty()) {
    // Clean elastic run: the base algorithm's words exactly (enlistment and
    // confirm probes are zero-word).
    pred.survivors = nprocs;
    pred.active_ranks = nprocs;
    pred.grid = facts.grid_of(base);
    for (int r = 0; r < nprocs; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      pred.rank_exec_words[ur] = width_words * facts.recv_elems(base, r);
      pred.rank_recv_words[ur] = pred.rank_exec_words[ur];
    }
    return pred;
  }
  std::vector<char> dead(static_cast<std::size_t>(nprocs), 0);
  for (int f : failed) {
    CAMB_CHECK_MSG(f >= 0 && f < nprocs, "elastic prediction: bad failed rank");
    dead[static_cast<std::size_t>(f)] = 1;
  }
  std::vector<int> survivors;
  for (int r = 0; r < nprocs; ++r) {
    if (!dead[static_cast<std::size_t>(r)]) survivors.push_back(r);
  }
  CAMB_CHECK_MSG(!survivors.empty(), "elastic prediction: nobody survives");
  const Config ncfg =
      facts.plan_at(base, static_cast<i64>(survivors.size()));
  const i64 nact = facts.grid_of(ncfg).total();
  pred.survivors = static_cast<i64>(survivors.size());
  pred.active_ranks = nact;
  pred.grid = facts.grid_of(ncfg);
  pred.shrink_words = static_cast<double>(elastic_shrink_recv_words_exact(
      nprocs, ecfg.max_failures, static_cast<int>(failed.size())));
  const coll::RegridPlan plan =
      elastic_regrid_plan(facts, base, ncfg, survivors, nprocs);
  for (std::size_t s = 0; s < survivors.size(); ++s) {
    const auto m = static_cast<std::size_t>(survivors[s]);
    pred.rank_migration_words[m] =
        width_words * coll::regrid_recv_elems_exact(plan, survivors[s]);
    pred.rank_exec_words[m] =
        static_cast<i64>(s) < nact
            ? width_words * facts.recv_elems(ncfg, static_cast<int>(s))
            : 0.0;
    pred.rank_recv_words[m] = pred.shrink_words + pred.rank_migration_words[m] +
                              pred.rank_exec_words[m];
  }
  return pred;
}

template ElasticPrediction elastic_prediction(const SummaConfig&,
                                              const ElasticConfig&,
                                              const std::vector<int>&, int,
                                              double);
template ElasticPrediction elastic_prediction(const Grid3dConfig&,
                                              const ElasticConfig&,
                                              const std::vector<int>&, int,
                                              double);
template ElasticPrediction elastic_prediction(const Alg25dConfig&,
                                              const ElasticConfig&,
                                              const std::vector<int>&, int,
                                              double);

}  // namespace camb::mm
