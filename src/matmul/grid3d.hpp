// grid3d.hpp — Algorithm 1: communication-optimal parallel matrix
// multiplication on a p1×p2×p3 logical processor grid (§5).
//
//   1. All-Gather A_{q1 q2} across the fiber (q1, q2, :)        [line 3]
//   2. All-Gather B_{q2 q3} across the fiber (:, q2, q3)        [line 4]
//   3. Local multiply D = A_{q1 q2} · B_{q2 q3}                 [line 6]
//   4. Reduce-Scatter D across the fiber (q1, :, q3) → C chunk  [line 8]
//
// With the §5.2 optimal grid this attains the Theorem 3 lower bound exactly
// (under divisibility), which is what proves the constants tight.  Grids
// with p_i = 1 degenerate to 2D and 1D algorithms with zero cost for the
// corresponding collective, exactly as in the paper's case analysis.
#pragma once

#include "collectives/allgather.hpp"
#include "collectives/reduce_scatter.hpp"
#include "collectives/rollback.hpp"
#include "machine/phase.hpp"
#include "matmul/distribution.hpp"
#include "util/matrix.hpp"

namespace camb::mm {

struct Grid3dConfig {
  Shape shape;
  Grid3 grid;
  coll::AllgatherAlgo allgather = coll::AllgatherAlgo::kAuto;
  coll::ReduceScatterAlgo reduce_scatter = coll::ReduceScatterAlgo::kAuto;
  /// Generate inputs with the integer-valued indexed pattern (exact,
  /// order-independent sums).  The ABFT wrapper forces this on.
  bool integer_inputs = false;
};

/// A rank's piece of the output: a flat chunk of its C block.
template <typename T>
struct Grid3dRankOutputT {
  BlockChunk c_chunk;
  std::vector<T> c_data;
};
using Grid3dRankOutput = Grid3dRankOutputT<double>;

/// The chunk layout for one rank (which flat parts of which blocks of A, B,
/// and C the rank owns initially / finally).
struct Grid3dLayout {
  BlockChunk a, b, c;
  std::vector<i64> a_counts, b_counts, c_counts;  ///< fiber chunk sizes
};

/// Computes the data layout of `rank` under the configuration.
Grid3dLayout grid3d_layout(const Grid3dConfig& cfg, int rank);

/// The one SPMD body of Algorithm 1, for every session
/// (collectives/rollback.hpp).  The owned chunks come through the session's
/// input hook: generated locally with the deterministic indexed pattern (no
/// distribution traffic, so all measured communication is the algorithm's
/// own), or, under ckpt::ElasticSessionT, the panels migrated onto a
/// survivors' re-planned grid (matmul/elastic.hpp).  Under ckpt::SessionT it
/// commits after the A all-gather, the B all-gather, and the gemm +
/// reduce-scatter.  Instantiated for the CAMB_FOR_EACH_SCALAR set.
template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_body(Session& session, const Grid3dConfig& cfg);

/// grid3d_body on a plain session.  The default scalar keeps legacy double
/// call sites source-compatible.
template <typename T = double>
Grid3dRankOutputT<T> grid3d_rank(RankCtx& ctx, const Grid3dConfig& cfg);

/// Exact predicted words received by `rank`, replicating the collective
/// round structure (matches the executed machine word-for-word).
i64 grid3d_predicted_recv_words(const Grid3dConfig& cfg, int rank);

/// Max of grid3d_predicted_recv_words over all ranks.
i64 grid3d_predicted_critical_recv_words(const Grid3dConfig& cfg);

/// Boundary steps grid3d_body announces, and the wire words of logical
/// rank `logical`'s snapshot at boundary `step`.
i64 grid3d_ckpt_steps(const Grid3dConfig& cfg);
i64 grid3d_ckpt_snapshot_words(const Grid3dConfig& cfg, int logical, i64 step);

/// Phase labels used by the implementation (for per-phase accounting).
inline constexpr const char* kPhaseAllgatherA = "allgather_A";
inline constexpr const char* kPhaseAllgatherB = "allgather_B";
inline constexpr const char* kPhaseLocalGemm = "local_gemm";
inline constexpr const char* kPhaseReduceScatterC = "reduce_scatter_C";
inline const PhaseId kPhaseAllgatherAId{kPhaseAllgatherA};
inline const PhaseId kPhaseAllgatherBId{kPhaseAllgatherB};
inline const PhaseId kPhaseLocalGemmId{kPhaseLocalGemm};
inline const PhaseId kPhaseReduceScatterCId{kPhaseReduceScatterC};

}  // namespace camb::mm
