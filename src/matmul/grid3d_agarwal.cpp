#include "matmul/grid3d_agarwal.hpp"

#include "collectives/alltoall.hpp"
#include "collectives/coll_cost.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_agarwal_body(Session& session,
                                         const Grid3dAgarwalConfig& cfg) {
  RankCtx& ctx = session.ctx();
  CAMB_CHECK_MSG(cfg.grid.total() == session.nprocs(),
                 "grid size must equal the machine size");
  const int me = session.rank();
  const Grid3dConfig base{cfg.shape, cfg.grid, cfg.allgather,
                          coll::ReduceScatterAlgo::kAuto};
  const Grid3dLayout layout = grid3d_layout(base, me);
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(me);
  const coll::Comm fiber_b = session.comm(map.fiber(0, q1, q2, q3));
  const coll::Comm fiber_c = session.comm(map.fiber(1, q1, q2, q3));
  const coll::Comm fiber_a = session.comm(map.fiber(2, q1, q2, q3));

  const i64 t0 = session.resume_step();
  std::vector<T> a_flat, b_flat;
  Grid3dRankOutputT<T> out;
  out.c_chunk = layout.c;
  if (session.restored()) {
    const SnapshotT<T>& snap = session.snapshot();
    if (t0 < 3) {
      a_flat = snap.bufs.at(0);
      if (t0 == 2) b_flat = snap.bufs.at(1);
    } else {
      out.c_data = snap.bufs.at(0);
    }
  }

  // Lines 3-4: identical to Algorithm 1.
  if (t0 < 1) {
    ctx.set_phase(kPhaseAllgatherAId);
    a_flat = coll::allgather(fiber_a, layout.a_counts,
                             fill_chunk_indexed<T>(layout.a), cfg.allgather);
    session.boundary(1, [&] { return snapshot_of<T>({a_flat}); });
  }
  if (t0 < 2) {
    ctx.set_phase(kPhaseAllgatherBId);
    b_flat = coll::allgather(fiber_b, layout.b_counts,
                             fill_chunk_indexed<T>(layout.b), cfg.allgather);
    session.boundary(2, [&] { return snapshot_of<T>({a_flat, b_flat}); });
  }
  if (t0 < 3) {
    ctx.set_phase(kPhaseLocalGemmId);
    const Matrix<T> d_block =
        gemm(Matrix<T>(layout.a.rows, layout.a.cols, std::move(a_flat)),
             Matrix<T>(layout.b.rows, layout.b.cols, std::move(b_flat)));

    // Line 8 the 1995 way: All-to-All the personalized D segments, sum after.
    ctx.set_phase(kPhaseAlltoallCId);
    const int p2 = static_cast<int>(cfg.grid.p2);
    std::vector<std::vector<T>> pieces(static_cast<std::size_t>(p2));
    for (int t = 0; t < p2; ++t) {
      const i64 off = coll::counts_offset(layout.c_counts, t);
      const i64 len = layout.c_counts[static_cast<std::size_t>(t)];
      pieces[static_cast<std::size_t>(t)].assign(d_block.data() + off,
                                                 d_block.data() + off + len);
    }
    const std::vector<std::vector<T>> received =
        coll::alltoall(fiber_c, pieces, cfg.alltoall);
    out.c_data.assign(static_cast<std::size_t>(layout.c.flat_size),
                      ScalarTraits<T>::zero());
    for (const auto& piece : received) {
      CAMB_CHECK(static_cast<i64>(piece.size()) == layout.c.flat_size);
      for (std::size_t j = 0; j < piece.size(); ++j) out.c_data[j] += piece[j];
    }
    session.boundary(3, [&] { return snapshot_of<T>({out.c_data}); });
  }
  return out;
}

template <typename T>
Grid3dRankOutputT<T> grid3d_agarwal_rank(RankCtx& ctx,
                                         const Grid3dAgarwalConfig& cfg) {
  ckpt::PlainSessionT<T> session(ctx);
  return grid3d_agarwal_body<T>(session, cfg);
}

#define CAMB_INSTANTIATE(T)                                   \
  template Grid3dRankOutputT<T> grid3d_agarwal_body<T>(       \
      ckpt::PlainSessionT<T>&, const Grid3dAgarwalConfig&);   \
  template Grid3dRankOutputT<T> grid3d_agarwal_body<T>(       \
      ckpt::SessionT<T>&, const Grid3dAgarwalConfig&);        \
  template Grid3dRankOutputT<T> grid3d_agarwal_rank<T>(       \
      RankCtx&, const Grid3dAgarwalConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 grid3d_agarwal_ckpt_steps(const Grid3dAgarwalConfig& cfg) {
  (void)cfg;
  return 3;
}

i64 grid3d_agarwal_ckpt_snapshot_words(const Grid3dAgarwalConfig& cfg,
                                       int logical, i64 step) {
  // Algorithm 1's layout and boundary state, step for step.
  return grid3d_ckpt_snapshot_words(Grid3dConfig{cfg.shape, cfg.grid},
                                    logical, step);
}

i64 grid3d_agarwal_predicted_recv_words(const Grid3dAgarwalConfig& cfg,
                                        int rank) {
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(rank);
  const Grid3dConfig base{cfg.shape, cfg.grid, cfg.allgather,
                          coll::ReduceScatterAlgo::kAuto};
  const Grid3dLayout layout = grid3d_layout(base, rank);
  i64 words = 0;
  words += coll::allgather_recv_words_exact(layout.a_counts,
                                            static_cast<int>(q3), cfg.allgather);
  words += coll::allgather_recv_words_exact(layout.b_counts,
                                            static_cast<int>(q1), cfg.allgather);
  // All-to-All of the rank's own segment size from every fiber peer.
  const i64 own = layout.c_counts[static_cast<std::size_t>(q2)];
  if (cfg.alltoall == coll::AlltoallAlgo::kPairwise) {
    words += (cfg.grid.p2 - 1) * own;
  } else {
    words += coll::alltoall_bruck_recv_words(static_cast<int>(cfg.grid.p2), own);
  }
  return words;
}

}  // namespace camb::mm
