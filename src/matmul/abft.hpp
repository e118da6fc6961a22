// abft.hpp — algorithm-based fault tolerance for the matmul algorithms.
//
// Huang–Abraham checksum encoding (ACM TC'84) generalized to the processor
// grid: alongside the normal algorithm, the ranks maintain redundant
// checksums of the output blocks, so that when a rank crash-fails
// (faults.hpp) the survivors can *reconstruct* the dead rank's output tile
// instead of recomputing the whole product.  The protocol has four parts:
//
//   1. Encode — extra cost-accounted collectives interleaved with the
//      algorithm accumulate block-sum checksums on designated ranks.
//   2. Degraded completion — a survivor that detects a failure mid-flight
//      (PeerFailedError) abandons the communication schedule (the deviation
//      cascades, so *every* survivor lands here or completes cleanly) and
//      finishes its own tile locally: all inputs are pure functions of their
//      global position (fill_chunk_indexed_int), so nothing is lost.
//   3. Shrink — one crash-agreement collective over the whole machine
//      (collectives/shrink.hpp) gives every survivor the same failed set.
//   4. Reconstruct — the survivors subtract their own tiles from a checksum
//      (one cost-accounted reduce) to recover each dead rank's tile.
//
// Exactness: the ABFT variants force the integer-valued input pattern, so
// every distributed sum is exact in double arithmetic and independent of
// summation order.  The reconstructed tile is therefore *bit-identical* to
// what the dead rank would have produced in a fault-free run — which the
// tests assert.
#pragma once

#include <functional>
#include <type_traits>

#include "machine/phase.hpp"
#include "matmul/grid3d.hpp"
#include "matmul/summa.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

/// Checksum-augmented SUMMA (2D grid).  Tolerates one crashed rank.
struct SummaAbftConfig {
  SummaConfig base;
  int max_failures = 1;  ///< shrink rounds = max_failures + 1
};

/// Checksum-augmented Algorithm 1 (3D grid).  Tolerates one crashed rank
/// per C fiber (needs p2 >= 2 on any fiber that loses a member).
struct Grid3dAbftConfig {
  Grid3dConfig base;
  int max_failures = 1;
};

/// A dead rank's output tile, reconstructed on a surviving host rank.
template <typename T>
struct RecoveredBlock2DT {
  int rank = -1;  ///< the crashed rank whose tile this is
  Block2DOutputT<T> out;
};
using RecoveredBlock2D = RecoveredBlock2DT<double>;

template <typename T>
struct SummaAbftOutputT {
  Block2DOutputT<T> own;  ///< this rank's (completed) tile
  std::vector<RecoveredBlock2DT<T>> recovered;  ///< tiles reconstructed here
  bool abandoned = false;  ///< did this rank take the degraded-local path?
  std::vector<int> failed;  ///< agreed failed ranks (same on all survivors)
  // Exported checksum state for post-run error correction (empty on
  // non-holders): S_j = sum_i pad_rows(C_ij) on rank (0, j), R_i =
  // sum_j pad_cols(C_ij) on rank (i, 0), T = sum_ij pad(C_ij) on the
  // corner.  summa_abft_correct intersects the row/column syndromes these
  // induce to locate and repair a single corrupted output cell.
  Matrix<T> s_sum;
  Matrix<T> r_sum;
  Matrix<T> t_sum;
};
using SummaAbftOutput = SummaAbftOutputT<double>;

template <typename T>
struct RecoveredChunk3DT {
  int rank = -1;
  BlockChunk c_chunk;
  std::vector<T> c_data;
};
using RecoveredChunk3D = RecoveredChunk3DT<double>;

template <typename T>
struct Grid3dAbftOutputT {
  Grid3dRankOutputT<T> own;
  std::vector<RecoveredChunk3DT<T>> recovered;
  bool abandoned = false;
  std::vector<int> failed;
  /// Exported C-fiber parity X = sum_q2 pad(c_chunk) (every fiber member
  /// holds a copy after the encode All-Reduce); grid3d_abft_correct checks
  /// each fiber's chunks against it to detect and repair corrupted cells.
  std::vector<T> parity;
};
using Grid3dAbftOutput = Grid3dAbftOutputT<double>;

/// SPMD body of checksum-augmented SUMMA for one rank.  Requires g >= 2.
///
/// Encoding (per stage t): the column groups reduce row-padded A panels to
/// row 0 and the row groups reduce column-padded B panels to column 0;
/// ranks (0, j) accumulate S_j = sum_i pad(C_ij), ranks (i, 0) accumulate
/// R_i = sum_j pad(C_ij), and the corner (g-1, g-1) accumulates the total
/// T = sum_ij pad(C_ij) from forwarded panel sums.  A single dead rank
/// (di, dj) is then reconstructed from S_dj (di != 0), from R_0 (di == 0,
/// dj != 0), or from T (the (0,0) corner itself), by subtracting the
/// survivors' tiles.
/// Templated over the scalar (CAMB_FOR_EACH_SCALAR set).  Exact scalars
/// (i64) use the plain indexed fill — their arithmetic never rounds, so the
/// checksums are bit-exact without the integer-valued input workaround the
/// floating-point instantiations still require.
///
/// One body for either session (collectives/rollback.hpp).  On a plain
/// session a failure takes the degraded-local path, then the shrink
/// agreement and the reconstruction run.  Under ckpt::SessionT the body
/// commits after every stage (tile plus held checksums) and a failure
/// instead aborts the round for rollback, so `recovered` stays empty.
template <typename T, typename Session>
SummaAbftOutputT<T> summa_abft_body(Session& session,
                                    const SummaAbftConfig& cfg);

/// summa_abft_body on a plain session.
template <typename T = double>
SummaAbftOutputT<T> summa_abft_rank(RankCtx& ctx, const SummaAbftConfig& cfg);

/// SPMD body of checksum-augmented Algorithm 1 for one rank.
///
/// Encoding: after the Reduce-Scatter, each C fiber (q1, :, q3) All-Reduces
/// the parity X = sum_q2 pad(c_chunk) of its members' chunks, so every
/// member holds X (f = 1 redundancy per fiber).  A dead rank's chunk is
/// X minus the surviving members' chunks; dead ranks on distinct fibers are
/// recovered independently.
///
/// One body for either session, like summa_abft_body: Algorithm 1's three
/// boundaries, then one after the parity encode.
template <typename T, typename Session>
Grid3dAbftOutputT<T> grid3d_abft_body(Session& session,
                                      const Grid3dAbftConfig& cfg);

/// grid3d_abft_body on a plain session.
template <typename T = double>
Grid3dAbftOutputT<T> grid3d_abft_rank(RankCtx& ctx,
                                      const Grid3dAbftConfig& cfg);

/// Exact fault-free received words for `rank` (base algorithm + encode +
/// shrink).  Asserted equal to the executed machine when no crash fires;
/// the measured excess over the base algorithm is the fault-tolerance tax
/// tabled by bench_abft_overhead.
i64 summa_abft_predicted_recv_words(const SummaAbftConfig& cfg, int rank);
i64 grid3d_abft_predicted_recv_words(const Grid3dAbftConfig& cfg, int rank);

/// Boundary steps the bodies announce, and the wire words of logical rank
/// `logical`'s snapshot at boundary `step`.
i64 summa_abft_ckpt_steps(const SummaAbftConfig& cfg);
i64 summa_abft_ckpt_snapshot_words(const SummaAbftConfig& cfg, int logical,
                                   i64 step);
i64 grid3d_abft_ckpt_steps(const Grid3dAbftConfig& cfg);
i64 grid3d_abft_ckpt_snapshot_words(const Grid3dAbftConfig& cfg, int logical,
                                    i64 step);

/// The fault-free data prediction: the ABFT prediction without the shrink
/// agreement, whose fixed 8-byte mask words the runner accounts as control
/// traffic (rollback replaces it with its own flood, costed separately).
i64 summa_abft_ckpt_base_recv_words(const SummaAbftConfig& cfg, int rank);
i64 grid3d_abft_ckpt_base_recv_words(const Grid3dAbftConfig& cfg, int rank);

// ---------------------------------------------------------------------------
// Single-error detection and correction (the SDC upgrade: the same checksums
// that reconstruct a *missing* tile after a crash also locate and repair a
// *corrupted* cell — the original Huang–Abraham use of the encoding).
// ---------------------------------------------------------------------------

/// What a post-run correction pass observed.  `detected` counts corrupted
/// cells the checksum syndromes flagged; `corrected` of them were localized
/// and repaired in place; `uncorrected` could not be disambiguated (more
/// simultaneous errors than the single-error code covers) and are left for
/// the Freivalds backstop.
struct AbftCorrection {
  int detected = 0;
  int corrected = 0;
  int uncorrected = 0;
  std::vector<int> corrected_ranks;  ///< ranks whose tiles were repaired

  bool clean() const { return detected == 0; }
};

/// Check every rank's output tile against the exported S/R checksums and
/// repair a single corrupted cell in place.  The column syndrome
/// D_j = sum_i pad_rows(C_ij) - S_j localizes the block column, local cell,
/// and error magnitude; the row syndrome E_i = sum_j pad_cols(C_ij) - R_i
/// localizes the block row; a unique, consistent intersection identifies
/// the tile and the repair is exact (integer-valued arithmetic).  Outputs
/// must come from a crash-free run (every rank's checksums present).
template <typename T = double>
AbftCorrection summa_abft_correct(const SummaAbftConfig& cfg,
                                  std::vector<SummaAbftOutputT<T>>& outputs);

/// Grid3d analogue over the C-fiber parities.  The parity syndrome gives
/// the corrupted local element and magnitude but not *which* fiber member
/// holds it (the members' chunks overlap elementwise in the parity);
/// `expected_entry(row, col)` — one exact dot product of the global inputs
/// per candidate — disambiguates.  Errors the intersection cannot pin down
/// are reported uncorrected for the Freivalds backstop.
/// `expected_entry` computes one exact reference entry in T; its type is a
/// non-deduced context so callers may pass a plain lambda.
template <typename T = double>
AbftCorrection grid3d_abft_correct(
    const Grid3dAbftConfig& cfg, std::vector<Grid3dAbftOutputT<T>>& outputs,
    const std::type_identity_t<std::function<T(i64, i64)>>& expected_entry);

/// Phase labels (encode/shrink/recover traffic is accounted separately from
/// the base algorithm's phases; failure-detection probes land in the
/// network's "heartbeat" phase).
inline constexpr const char* kPhaseAbftEncode = "abft_encode";
inline constexpr const char* kPhaseAbftShrink = "abft_shrink";
inline constexpr const char* kPhaseAbftRecover = "abft_recover";
inline const PhaseId kPhaseAbftEncodeId{kPhaseAbftEncode};
inline const PhaseId kPhaseAbftShrinkId{kPhaseAbftShrink};
inline const PhaseId kPhaseAbftRecoverId{kPhaseAbftRecover};

}  // namespace camb::mm
