// carma.hpp — the recursive communication-avoiding algorithm of Demmel et
// al. (2013), the work whose asymptotic three-case bounds Theorem 3 tightens
// (§2.3, §6.1: "Demmel et al. present and analyze their recursive algorithm
// to show its asymptotic optimality in all three cases, but they do not
// track constants").
//
// BFS-only CARMA for P = 2^levels: at every node the processor group halves
// and the largest of the three current dimensions is split:
//
//   M-split (rows of A/C):    no data motion — the row-distributed A and the
//                             eventual C halves already align with the halves
//                             of the group; B is replicated into both halves.
//   N-split (cols of B/C):    mirror image — A replicated, B column-halved.
//   K-split (the contraction): A is column-halved across the group halves
//                             (B's row halves already align); on unwind the
//                             two halves' partial C results are summed by a
//                             pairwise exchange-and-add.
//
// Invariants: at every node, A and B are distributed over the node's group
// in contiguous row blocks; each rank finishes with one contiguous flat
// range of one rectangular sub-block of C.  Divisibility (n1, n2, n3 all
// divisible by 2^levels) is required, matching the paper-style analysis.
//
// Every exchange is deterministic, so carma_predicted_recv_words replays the
// recursion without data and matches the executed machine word-for-word —
// letting the benches place CARMA's constants next to Algorithm 1's.
#pragma once

#include "collectives/rollback.hpp"
#include "machine/machine.hpp"
#include "machine/phase.hpp"
#include "matmul/distribution.hpp"
#include "util/matrix.hpp"

namespace camb::mm {

struct CarmaConfig {
  Shape shape;
  int levels = 0;  ///< P = 2^levels ranks
};

/// A rank's final piece of C: a contiguous flat range of a C sub-block.
template <typename T>
struct CarmaRankOutputT {
  BlockChunk holding;
  std::vector<T> data;
};
using CarmaRankOutput = CarmaRankOutputT<double>;

/// The one SPMD body for either session (inputs generated in place at the
/// root distribution, so all measured traffic is the algorithm's own).
/// Under ckpt::SessionT it commits once per recursion level (the current A
/// and B holdings); a resumed rank replays the skipped levels' split
/// geometry and comm leases locally — no communication — so the unwind's
/// combine frames are rebuilt exactly.  Instantiated for the
/// CAMB_FOR_EACH_SCALAR set.
template <typename T, typename Session>
CarmaRankOutputT<T> carma_body(Session& session, const CarmaConfig& cfg);

/// carma_body on a plain session.
template <typename T = double>
CarmaRankOutputT<T> carma_rank(RankCtx& ctx, const CarmaConfig& cfg);

/// Exact predicted received words per rank (replays the recursion).
std::vector<i64> carma_predicted_recv_words(const CarmaConfig& cfg);

/// Which splits the recursion performs, in order ('M', 'K', or 'N') —
/// exposed for tests and for reasoning about the constants.
std::vector<char> carma_split_sequence(const CarmaConfig& cfg);

/// True iff the configuration satisfies CARMA's divisibility requirements.
bool carma_supported(const Shape& shape, int levels);

/// Boundary steps carma_body announces, and the wire words of logical rank
/// `logical`'s snapshot at boundary `step`.
i64 carma_ckpt_steps(const CarmaConfig& cfg);
i64 carma_ckpt_snapshot_words(const CarmaConfig& cfg, int logical, i64 step);

inline constexpr const char* kPhaseCarmaSplit = "carma_split";
inline constexpr const char* kPhaseCarmaGemm = "carma_gemm";
inline constexpr const char* kPhaseCarmaCombine = "carma_combine";
inline const PhaseId kPhaseCarmaSplitId{kPhaseCarmaSplit};
inline const PhaseId kPhaseCarmaGemmId{kPhaseCarmaGemm};
inline const PhaseId kPhaseCarmaCombineId{kPhaseCarmaCombine};

}  // namespace camb::mm
