// summa.hpp — SUMMA baseline: the classical 2D broadcast-based algorithm
// (van de Geijn & Watts).  Included as a distinct-implementation baseline
// for the comparison benches (§2.4 context): on a g×g grid it moves
// ~(1 − 1/g)(n1n2 + n2n3)/g words per rank, which is optimal only in the 2D
// regime and only for nearly-square problems.
//
// Grid: g×g over (n1, n3); rank (i, j) owns blocks A_{ij}, B_{ij}, C_{ij}
// under near-equal splits.  Stage t broadcasts A block-column t along rows
// and B block-row t along columns, accumulating C += A_t · B_t.
#pragma once

#include "collectives/bcast.hpp"
#include "collectives/rollback.hpp"
#include "machine/machine.hpp"
#include "machine/phase.hpp"
#include "matmul/distribution.hpp"
#include "util/matrix.hpp"

namespace camb::mm {

struct SummaConfig {
  Shape shape;
  i64 g = 1;  ///< grid edge; machine size must be g*g
  /// Panel broadcast algorithm: binomial for small panels, pipelined ring
  /// for bandwidth-bound panels (word counts are identical either way).
  coll::BcastAlgo bcast = coll::BcastAlgo::kBinomial;
  i64 bcast_segments = 16;  ///< pipelined ring segmentation
  /// Generate inputs with the integer-valued indexed pattern (exact,
  /// order-independent sums).  The ABFT wrapper forces this on.
  bool integer_inputs = false;
};

/// A rank's full C block with its global origin.
template <typename T>
struct Block2DOutputT {
  i64 row0 = 0, col0 = 0;
  Matrix<T> block;
};
using Block2DOutput = Block2DOutputT<double>;

/// The one SPMD body of SUMMA, for every session (collectives/rollback.hpp):
/// under ckpt::SessionT it commits the C block after every stage and
/// resumes from the last committed one; under ckpt::ElasticSessionT it runs
/// on a survivors' re-planned grid (matmul/elastic.hpp).  The owned blocks
/// come through the session's input hook (the indexed pattern, or migrated
/// panels).  Instantiated for the CAMB_FOR_EACH_SCALAR set.
template <typename T, typename Session>
Block2DOutputT<T> summa_body(Session& session, const SummaConfig& cfg);

/// summa_body on a plain session.  The default scalar keeps legacy double
/// call sites source-compatible.
template <typename T = double>
Block2DOutputT<T> summa_rank(RankCtx& ctx, const SummaConfig& cfg);

/// Exact predicted received words for `rank` (binomial broadcasts: every
/// non-root of a stage receives the panel once).
i64 summa_predicted_recv_words(const SummaConfig& cfg, int rank);

/// Boundary steps summa_body announces (one per SUMMA stage).
i64 summa_ckpt_steps(const SummaConfig& cfg);
/// Wire words of logical rank `logical`'s snapshot at boundary `step`.
i64 summa_ckpt_snapshot_words(const SummaConfig& cfg, int logical, i64 step);

inline constexpr const char* kPhaseSummaBcastA = "summa_bcast_A";
inline constexpr const char* kPhaseSummaBcastB = "summa_bcast_B";
inline constexpr const char* kPhaseSummaGemm = "summa_gemm";
inline const PhaseId kPhaseSummaBcastAId{kPhaseSummaBcastA};
inline const PhaseId kPhaseSummaBcastBId{kPhaseSummaBcastB};
inline const PhaseId kPhaseSummaGemmId{kPhaseSummaGemm};

}  // namespace camb::mm
