// regrid.hpp — the elastic data-redistribution collective.
//
// When crashes shrink the machine from P to P′ ranks, the elastic layer
// re-plans the processor grid for P′ (core/grid.hpp
// best_integer_grid_at_most) and must move every live A/B panel from the old
// distribution to the new one before the multiplication can resume.  This
// module is that move, phrased distribution-agnostically:
//
//   * a rank's holding is a PanelSet — sorted, non-overlapping spans in the
//     GLOBAL row-major cell-index space of each input matrix (A is n1×n2,
//     B is n2×n3).  Every distribution in this library (SUMMA tiles, the
//     Grid3d fiber chunks, the 2.5D layer-0 blocks) flattens to exactly this
//     form, because their local storage order coincides with global
//     row-major order restricted to the span;
//   * a RegridPlan lists, per machine rank, the old panels, the new panels,
//     and whether the old owner is still alive to send them.  Both sides of
//     every transfer compute the same plan from the same shrink agreement,
//     so payload layouts need no framing: values travel concatenated in
//     canonical (matrix, global index) order of the overlap;
//   * one message per (old owner → new owner) pair with a non-empty
//     overlap.  Pieces whose old owner died — or that a source's mid-regrid
//     death left undelivered (recv_timed returns nullopt; never a hang) —
//     are regenerated locally from the position-pure fill, bit-identical to
//     what the wire would have carried;
//   * the exact per-rank receive bill is regrid_recv_elems_exact — the
//     interval arithmetic of the plan, nothing measured — which the elastic
//     report and tests pin measured words against with zero tolerance.
//
// The old placement must partition each matrix (every cell exactly one old
// owner, dead or alive): the coverage CAMB_CHECK in regrid() enforces it.
#pragma once

#include <functional>
#include <vector>

#include "collectives/comm.hpp"
#include "machine/phase.hpp"

namespace camb::coll {

/// Phase label for all regrid traffic (words land here, not in the
/// algorithm phases, so the migration tax is separately observable).
inline constexpr const char* kPhaseElasticRegrid = "elastic_regrid";
inline const PhaseId kPhaseElasticRegridId{kPhaseElasticRegrid};

/// One contiguous span of an input matrix in global row-major cell-index
/// space: cells [start, start + len) of matrix 0 (= A) or 1 (= B).
struct PanelSpan {
  int matrix = 0;
  i64 start = 0;
  i64 len = 0;

  i64 end() const { return start + len; }
  bool operator==(const PanelSpan&) const = default;
};

/// A rank's holding: spans sorted by (matrix, start), pairwise disjoint.
using PanelSet = std::vector<PanelSpan>;

/// Throws camb::Error unless `set` is sorted by (matrix, start) with
/// positive-length, pairwise-disjoint spans.
void check_panel_set(const PanelSet& set);

/// Total cells in a panel set.
i64 panels_elems(const PanelSet& set);

/// Interval intersection of two panel sets, in canonical order.
PanelSet intersect_panels(const PanelSet& a, const PanelSet& b);

/// The old→new redistribution, agreed identically by every participant
/// (all vectors are indexed by MACHINE rank, size nprocs).
struct RegridPlan {
  /// Attempt-0 placement: old_panels[r] is what rank r originally filled.
  /// Must partition each matrix across ranks.
  std::vector<PanelSet> old_panels;
  /// Target placement: new_panels[r] is what rank r needs on the new grid
  /// (empty for idle survivors and for non-survivors).
  std::vector<PanelSet> new_panels;
  /// alive[r]: rank r survived and still holds old_panels[r] (failed and
  /// retired ranks are not alive; their pieces are regenerated).
  std::vector<char> alive;
};

/// The exact number of cells rank `machine_rank` receives over the wire in a
/// death-free regrid: the overlap of its new panels with every *alive* old
/// owner other than itself.  Purely interval arithmetic on the plan.
i64 regrid_recv_elems_exact(const RegridPlan& plan, int machine_rank);

/// The same bill in (possibly half-integer) 8-byte words for a scalar of
/// width `width_words` (util/scalar.hpp dtype_width_words).
double regrid_recv_words_exact(const RegridPlan& plan, int machine_rank,
                               double width_words);

template <typename T>
struct RegridResult {
  /// The values of this rank's new panels, concatenated in canonical order
  /// (a = matrix-0 spans, b = matrix-1 spans).
  std::vector<T> a;
  std::vector<T> b;
  /// Cells that arrived over the wire (== regrid_recv_elems_exact when no
  /// source died mid-regrid).
  i64 migrated_elems = 0;
  /// Cells refilled locally: dead old owners' pieces plus any piece a
  /// mid-regrid death left undelivered.
  i64 regenerated_elems = 0;
  /// Cells copied from this rank's own old panels (free, self-overlap).
  i64 local_elems = 0;
};

/// Regenerator: writes the values of global cells [start, start + len) of
/// `matrix` (0 = A, 1 = B) into out[0..len).  Must be position-pure — the
/// same cell yields the same value on every rank — which is exactly the
/// fill_chunk_indexed* contract (matmul/distribution.hpp); the elastic layer
/// passes the algorithm's own fill so regenerated cells are bit-identical
/// to migrated ones.
template <typename T>
using RegridFill = std::function<void(int matrix, i64 start, i64 len, T* out)>;

/// Runs the redistribution on `comm` (the survivors' recovery comm; every
/// member calls, including idle survivors with empty new panels — the
/// take_tag_block draw is part of the SPMD lease contract).  `my_old_a` /
/// `my_old_b` hold the values of plan.old_panels[my rank] in canonical
/// order.  Sends never block; receives use an infinite-deadline recv_timed,
/// so a source's death yields regeneration, never a hang.  Defined for the
/// CAMB_FOR_EACH_SCALAR set via explicit instantiation.
template <typename T>
RegridResult<T> regrid(const Comm& comm, const RegridPlan& plan,
                       const std::vector<T>& my_old_a,
                       const std::vector<T>& my_old_b,
                       const RegridFill<T>& fill);

}  // namespace camb::coll
