// elastic.hpp — elastic shrink-and-regrid: graceful degradation onto the
// optimal grid for the surviving P′.
//
// When crashes strike mid-multiplication, the survivors agree on who is gone
// (collectives/shrink.hpp), re-plan the processor grid for P′ with the cost
// engine (core/grid.hpp best_integer_grid_at_most and the per-algorithm
// searches below), redistribute every live A/B panel old → new distribution
// (collectives/regrid.hpp), and complete the multiplication on the new grid
// — never hanging, never answering wrong, never silently over-communicating.
//
// The protocol, per rank:
//
//   enlistment   two zero-word probe rounds over the whole machine.  A rank
//                that dies during round A sends no round-B OK, so every
//                survivor reads at least one nullopt in round B and entry
//                into recovery is unanimous with ZERO data words moved —
//                the scenario the word-exact acceptance sweep pins.
//   attempt 0    the algorithm's one body on the world grid under a plain
//                session (so a clean elastic run is word-identical to the
//                base run), followed by a zero-word completion-confirm round.
//                All delivered → retire (abandon every tag; finished tiles
//                stand).  Any failure → abandon() and enter recovery.
//   round r ≥ 1  realign the recovery tag cursor to band r; shrink over the
//                original membership (retired and crashed ranks both read
//                as gone); re-plan the grid for the survivor count; regrid
//                the ORIGINAL panels (survivors keep their attempt-0 fills
//                across rounds, so the migration bill is a closed form of
//                the failed set alone); the first active_ranks survivors
//                rerun the same body under a ckpt::ElasticSessionT, whose
//                comms map the new grid's logical ranks onto recovery comms
//                and whose input hook hands out the migrated panels;
//                zero-word confirm round among all survivors.  Failure →
//                abandon below band r+1 and repeat; rounds are bounded by
//                max_failures + 1 because every extra round is rooted in a
//                new death.
//
// Elastic inputs are always integer-valued for rounded scalars (exact,
// order-independent sums; the runner forces it), so C is bit-identical
// whichever grid — or mix of attempt-0 retiree tiles and recovery-round
// tiles — produced it.
#pragma once

#include <numeric>
#include <optional>
#include <utility>

#include "collectives/regrid.hpp"
#include "collectives/rollback.hpp"
#include "collectives/shrink.hpp"
#include "machine/phase.hpp"
#include "matmul/alg25d.hpp"
#include "matmul/grid3d.hpp"
#include "matmul/summa.hpp"

namespace camb::mm {

/// Elastic-mode switches (carried inside RunOptions).
struct ElasticConfig {
  /// Runner switch: run an elastic-capable algorithm (summa, grid3d, alg25d)
  /// through the shrink-and-regrid driver; any other algorithm rejects it.
  bool enabled = false;
  /// Crash budget the shrink agreement is provisioned for; also bounds the
  /// recovery rounds (each extra round needs a fresh death).  In [0, 30]:
  /// the recovery tag space holds 31 bands.
  int max_failures = 1;
};

inline constexpr const char* kPhaseElasticEnlist = "elastic_enlist";
inline constexpr const char* kPhaseElasticShrink = "elastic_shrink";
inline constexpr const char* kPhaseElasticConfirm = "elastic_confirm";
inline const PhaseId kPhaseElasticEnlistId{kPhaseElasticEnlist};
inline const PhaseId kPhaseElasticShrinkId{kPhaseElasticShrink};
inline const PhaseId kPhaseElasticConfirmId{kPhaseElasticConfirm};

/// Recovery-region tag bands, one per recovery round (the rollback protocol
/// uses the same banding discipline): round r's leases start at
/// elastic_band_base(r), and a failed round abandons below band r+1.
inline constexpr int kElasticBandBlocks = 1 << 13;
inline constexpr int elastic_band_base(int round) {
  return kRecoveryTagBase + (round - 1) * kElasticBandBlocks * kTagBlockWidth;
}

/// Exact per-survivor received control words of the round-1 shrink agreement
/// when `pre_failures` members were already gone before the flood started:
/// (max_failures + 1) rounds × (alive − 1) delivering peers × 2⌈P/32⌉ mask
/// words.  These are f64 control words — never scaled by the data dtype.
i64 elastic_shrink_recv_words_exact(int nprocs, int max_failures,
                                    int pre_failures);

/// The per-algorithm elastic facts, one set per elastic-capable config
/// (elastic_facts below):
///   plan_at     deterministic re-plan at survivor count `max_procs` (every
///               survivor computes the same plan from the agreed failed set):
///               summa   g′ = ⌊√P′⌋ (largest square at most P′);
///               grid3d  core::best_integer_grid_at_most(shape, P′) — the
///                       eq. 3 search down the divisor lattice;
///               alg25d  exhaustive (g′, c′) with c′ | g′, g′²c′ ≤ P′
///                       minimizing the 2.5D cost, ties to more ranks then
///                       smaller (g′, c′);
///   grid_of     the grid a config runs on (total() = its active ranks):
///               summa {g,g,1}; grid3d its grid; alg25d {c,g,g};
///   panels      the input panels (global row-major spans of A and B —
///               regrid.hpp's canonical form) logical rank `logical` owns
///               under the initial distribution; off-grid ranks and
///               non-layer-0 2.5D ranks own nothing;
///   recv_elems  the algorithm's exact per-rank received-elements predictor.
template <typename Config>
struct ElasticFacts {
  Config (*plan_at)(const Config& base, i64 max_procs);
  core::Grid3 (*grid_of)(const Config& cfg);
  coll::PanelSet (*panels)(const Config& cfg, int logical);
  i64 (*recv_elems)(const Config& cfg, int logical);
};
ElasticFacts<SummaConfig> elastic_facts(const SummaConfig&);
ElasticFacts<Grid3dConfig> elastic_facts(const Grid3dConfig&);
ElasticFacts<Alg25dConfig> elastic_facts(const Alg25dConfig&);

/// What one rank hands back from an elastic run: the body's own output on
/// the grid the rank finished on (attempt 0 for retirees, the new grid for
/// recovery actives, none for idle survivors), plus the agreed outcome.
template <typename Output>
struct ElasticRankOutputT {
  std::optional<Output> output;
  int rounds = 0;           ///< recovery rounds taken (0 = clean attempt 0)
  std::vector<int> failed;  ///< agreed failed machine ranks (final round)
  i64 survivors = 0;        ///< P′ of the final round (P when clean)
  i64 active_ranks = 0;     ///< ranks used by the final grid
  core::Grid3 final_grid;   ///< the grid the rank finished on
};

/// One zero-word probe round on `comm`: send to every peer, then wait out
/// every peer's probe (infinite deadline — failure, never a hang).  Returns
/// false iff some peer is dead or has deviated from this tag band, in which
/// case the caller enters (or retries) recovery.
bool elastic_probe_round(const coll::Comm& comm, PhaseId phase, int tag);

/// The values of one matrix's panels in canonical order, from the
/// position-pure input pattern, and that pattern as regrid's regenerator:
/// regenerated cells are bit-identical to what the original owner filled.
/// Instantiated for the CAMB_FOR_EACH_SCALAR set.
template <typename T>
coll::RegridFill<T> elastic_fill(const Shape& shape, bool integer_inputs);
template <typename T>
std::vector<T> elastic_panel_values(const coll::RegridFill<T>& fill,
                                    const coll::PanelSet& panels, int matrix);

/// The regrid agreement: old panels are the attempt-0 placement of every
/// machine rank (a partition of A and B); new panels are the re-planned
/// placement of the first `nact` survivors; alive marks who still holds
/// old panels (retired and crashed ranks do not — their cells regenerate).
template <typename Config>
coll::RegridPlan elastic_regrid_plan(const ElasticFacts<Config>& facts,
                                     const Config& base, const Config& ncfg,
                                     const std::vector<int>& survivors,
                                     int nprocs) {
  const i64 nact = facts.grid_of(ncfg).total();
  coll::RegridPlan plan;
  plan.old_panels.resize(static_cast<std::size_t>(nprocs));
  plan.new_panels.resize(static_cast<std::size_t>(nprocs));
  plan.alive.assign(static_cast<std::size_t>(nprocs), 0);
  for (int r = 0; r < nprocs; ++r) {
    plan.old_panels[static_cast<std::size_t>(r)] = facts.panels(base, r);
  }
  for (std::size_t s = 0; s < survivors.size(); ++s) {
    const auto m = static_cast<std::size_t>(survivors[s]);
    plan.alive[m] = 1;
    if (static_cast<i64>(s) < nact) {
      plan.new_panels[m] = facts.panels(ncfg, static_cast<int>(s));
    }
  }
  return plan;
}

/// The elastic driver on one rank, around the algorithm's one body:
/// `body(session, config)` runs under a ckpt::PlainSessionT<T> on the base
/// grid in attempt 0 and under a ckpt::ElasticSessionT<T> on each re-planned
/// grid.  Attempt 0 must cover the machine.  `cfg` carries the inputs the
/// run fills (the runner forces the integer-valued pattern for rounded
/// scalars).  The protocol is the one narrated at the top of this file; the
/// invariants that make it safe are marked inline.
template <typename T, typename Config, typename Body>
auto elastic_rank(RankCtx& ctx, const Config& cfg, const ElasticConfig& ecfg,
                  Body&& body) {
  using Output =
      decltype(body(std::declval<ckpt::PlainSessionT<T>&>(), cfg));
  const ElasticFacts<Config> facts = elastic_facts(cfg);
  const int nprocs = ctx.nprocs();
  CAMB_CHECK_MSG(facts.grid_of(cfg).total() == nprocs,
                 "elastic: base grid must cover the machine");

  // Attempt-0 holdings, kept for the lifetime of the run: every recovery
  // round regrids from the ORIGINAL placement, so the migration bill is a
  // closed form of the failed set alone.
  const coll::RegridFill<T> fill =
      elastic_fill<T>(cfg.shape, cfg.integer_inputs);
  const coll::PanelSet my_panels = facts.panels(cfg, ctx.rank());
  const std::vector<T> old_a = elastic_panel_values<T>(fill, my_panels, 0);
  const std::vector<T> old_b = elastic_panel_values<T>(fill, my_panels, 1);

  ElasticRankOutputT<Output> out;
  bool clean = false;
  {
    // World comm first (lease #1 everywhere), probe tags up front.
    coll::Comm world = coll::Comm::world(ctx);
    const int tag_a = world.take_tag_block();
    const int tag_b = world.take_tag_block();
    const int tag_done = world.take_tag_block();
    try {
      // Two enlistment rounds: a rank that dies in round A sends no round-B
      // OK, so entry into recovery is unanimous before any data moves.
      if (elastic_probe_round(world, kPhaseElasticEnlistId, tag_a) &&
          elastic_probe_round(world, kPhaseElasticEnlistId, tag_b)) {
        ckpt::PlainSessionT<T> session(ctx);
        out.output = body(session, cfg);
        clean = elastic_probe_round(world, kPhaseElasticConfirmId, tag_done);
      }
    } catch (const PeerFailedError&) {
      clean = false;
    }
  }
  if (clean) {
    // Retire: every tag of this rank is dead to stragglers, so a peer that
    // still enters recovery reads this rank as gone and regenerates.
    ctx.abandon_below(kTagSpaceLimit);
    out.survivors = nprocs;
    out.active_ranks = nprocs;
    out.final_grid = facts.grid_of(cfg);
    return out;
  }
  out.output.reset();
  // Cascade: peers blocked on this rank's algorithm tags fail over now.
  ctx.abandon();

  std::vector<int> everyone_ranks(static_cast<std::size_t>(nprocs));
  std::iota(everyone_ranks.begin(), everyone_ranks.end(), 0);

  for (int round = 1; round <= ecfg.max_failures + 1; ++round) {
    // Realign the recovery cursor to this round's band: survivors stuck in
    // different per-round lease histories (idle vs active) agree again.
    ctx.tags().set_recovery_cursor(elastic_band_base(round));
    ctx.set_phase(kPhaseElasticShrinkId);
    coll::Comm everyone = coll::Comm::recovery(ctx, everyone_ranks);
    coll::ShrinkResult agreed =
        coll::shrink(everyone, ecfg.max_failures, /*i_abandoned=*/true);
    const coll::Comm& surv = agreed.survivors;
    // Pre-draw the confirm tag: the body's leases below are active-only,
    // and the confirm round must stay in lockstep with idle survivors.
    const int tag_confirm = surv.take_tag_block();

    const i64 pprime = surv.size();
    const Config ncfg = facts.plan_at(cfg, pprime);
    const i64 nact = facts.grid_of(ncfg).total();
    CAMB_CHECK(nact >= 1 && nact <= pprime);
    const int L = surv.my_index() < nact ? surv.my_index() : -1;

    coll::RegridResult<T> moved = coll::regrid<T>(
        surv, elastic_regrid_plan(facts, cfg, ncfg, surv.ranks(), nprocs),
        old_a, old_b, fill);

    bool healed = false;
    try {
      if (L >= 0) {
        ckpt::ElasticSessionT<T> session(
            ctx, std::vector<int>(surv.ranks().begin(),
                                  surv.ranks().begin() + nact),
            L, std::move(moved.a), std::move(moved.b));
        out.output = body(session, ncfg);
      }
      healed = elastic_probe_round(surv, kPhaseElasticConfirmId, tag_confirm);
    } catch (const PeerFailedError&) {
      healed = false;
    }
    if (healed) {
      ctx.abandon_below(kTagSpaceLimit);  // retire
      out.rounds = round;
      out.failed = agreed.failed;
      out.survivors = pprime;
      out.active_ranks = nact;
      out.final_grid = facts.grid_of(ncfg);
      return out;
    }
    out.output.reset();
    // This round's band is dead to everyone; round r+1 tags still flow.
    ctx.abandon_below(elastic_band_base(round + 1));
  }
  // Unreachable unless more than max_failures distinct deaths struck: every
  // retried round is rooted in a death during the previous one.
  throw Error("elastic: recovery did not converge within max_failures rounds");
}

/// The offline mirror of what the survivors agree on when exactly `failed`
/// are gone — everything the runner report, the acceptance sweep, and the
/// bench pin measured words against, with zero tolerance.
struct ElasticPrediction {
  i64 survivors = 0;                   ///< P′
  i64 active_ranks = 0;                ///< ranks the new grid uses
  core::Grid3 grid;                    ///< the re-planned grid
  /// Exact per-machine-rank received words: 0 for the failed; shrink
  /// control + width × (regrid + new-grid exec elements) for survivors.
  std::vector<double> rank_recv_words;
  /// The regrid component alone (the migration tax), per machine rank.
  std::vector<double> rank_migration_words;
  /// The new-grid execution component alone, per machine rank.
  std::vector<double> rank_exec_words;
  /// Per-survivor shrink agreement control words (uniform over survivors).
  double shrink_words = 0;
};

/// Predictions for the enlistment-crash scenario: every rank in `failed`
/// dies before any attempt-0 data moved, and recovery completes in one
/// round.  With `failed` empty this degenerates to the clean elastic run —
/// base-algorithm words exactly, no shrink, no migration.  Instantiated for
/// the three elastic-capable configs.
template <typename Config>
ElasticPrediction elastic_prediction(const Config& base,
                                     const ElasticConfig& ecfg,
                                     const std::vector<int>& failed,
                                     int nprocs, double width_words);

}  // namespace camb::mm
