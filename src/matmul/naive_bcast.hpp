// naive_bcast.hpp — deliberately communication-naive baseline.
//
// Rank 0 owns both inputs, broadcasts all of A and B to every rank, each
// rank computes a row-slice of C, and the slices are gathered back to rank 0.
// It satisfies the lower bound's assumptions (one copy of inputs at start,
// one copy of the output at the end, computation load balanced), so Theorem 3
// applies — and the baselines bench shows how far from optimal it is
// (every rank receives the full inputs, independent of P).
#pragma once

#include "machine/phase.hpp"
#include "matmul/distribution.hpp"
#include "matmul/summa.hpp"

namespace camb::mm {

struct NaiveBcastConfig {
  Shape shape;
};

/// The one SPMD body for either session; returns the rank's C row-slice (all
/// ranks return their slice; the runner reassembles, mirroring the final
/// gather onto rank 0).  Under ckpt::SessionT it commits after the A
/// broadcast, the B broadcast and the local gemm; the gather epilogue is not
/// checkpointed.  Instantiated for the CAMB_FOR_EACH_SCALAR set.
template <typename T, typename Session>
Block2DOutputT<T> naive_bcast_body(Session& session,
                                   const NaiveBcastConfig& cfg);

/// naive_bcast_body on a plain session.
template <typename T = double>
Block2DOutputT<T> naive_bcast_rank(RankCtx& ctx, const NaiveBcastConfig& cfg);

/// Exact predicted received words for `rank`.
i64 naive_bcast_predicted_recv_words(const NaiveBcastConfig& cfg, int rank,
                                     int nprocs);

/// Boundary steps naive_bcast_body announces, and the wire words of logical
/// rank `logical`'s snapshot at boundary `step`.
i64 naive_bcast_ckpt_steps(const NaiveBcastConfig& cfg);
i64 naive_bcast_ckpt_snapshot_words(const NaiveBcastConfig& cfg, int logical,
                                    int nprocs, i64 step);

inline constexpr const char* kPhaseNaiveBcast = "naive_bcast";
inline constexpr const char* kPhaseNaiveGemm = "naive_gemm";
inline constexpr const char* kPhaseNaiveGather = "naive_gather";
inline const PhaseId kPhaseNaiveBcastId{kPhaseNaiveBcast};
inline const PhaseId kPhaseNaiveGemmId{kPhaseNaiveGemm};
inline const PhaseId kPhaseNaiveGatherId{kPhaseNaiveGather};

}  // namespace camb::mm
