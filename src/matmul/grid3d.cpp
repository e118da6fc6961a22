#include "matmul/grid3d.hpp"

#include "collectives/coll_cost.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

namespace {

struct Dists {
  BlockDist1D d1, d2, d3;
  explicit Dists(const Grid3dConfig& cfg)
      : d1(cfg.shape.n1, cfg.grid.p1),
        d2(cfg.shape.n2, cfg.grid.p2),
        d3(cfg.shape.n3, cfg.grid.p3) {}
};

BlockChunk make_chunk(const BlockDist1D& row_dist, i64 row_idx,
                      const BlockDist1D& col_dist, i64 col_idx,
                      i64 fiber_size, i64 fiber_idx) {
  BlockChunk chunk;
  chunk.row0 = row_dist.start(row_idx);
  chunk.col0 = col_dist.start(col_idx);
  chunk.rows = row_dist.size(row_idx);
  chunk.cols = col_dist.size(col_idx);
  const BlockDist1D flat(chunk.rows * chunk.cols, fiber_size);
  chunk.flat_start = flat.start(fiber_idx);
  chunk.flat_size = flat.size(fiber_idx);
  return chunk;
}

}  // namespace

Grid3dLayout grid3d_layout(const Grid3dConfig& cfg, int rank) {
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(rank);
  const Dists dists(cfg);
  Grid3dLayout layout;
  // A_{q1 q2} spread across the p3 fiber; B_{q2 q3} across p1; C_{q1 q3}
  // across p2 (§5's initial/final distributions).
  layout.a = make_chunk(dists.d1, q1, dists.d2, q2, cfg.grid.p3, q3);
  layout.b = make_chunk(dists.d2, q2, dists.d3, q3, cfg.grid.p1, q1);
  layout.c = make_chunk(dists.d1, q1, dists.d3, q3, cfg.grid.p2, q2);
  layout.a_counts = BlockDist1D(layout.a.block_size(), cfg.grid.p3).counts();
  layout.b_counts = BlockDist1D(layout.b.block_size(), cfg.grid.p1).counts();
  layout.c_counts = BlockDist1D(layout.c.block_size(), cfg.grid.p2).counts();
  return layout;
}

/// The four steps of Algorithm 1, with boundaries after the A all-gather,
/// the B all-gather, and the gemm + reduce-scatter.  The working sets span
/// the whole body whatever step it resumes from.
template <typename T, typename Session>
Grid3dRankOutputT<T> grid3d_body(Session& session, const Grid3dConfig& cfg) {
  CAMB_CHECK_MSG(cfg.grid.total() == session.nprocs(),
                 "grid size must equal the machine size");
  RankCtx& ctx = session.ctx();
  const int me = session.rank();
  const Grid3dLayout layout = grid3d_layout(cfg, me);
  // The three fibers in axis order: (:, q2, q3) for B, (q1, :, q3) for C,
  // (q1, q2, :) for A.
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(me);
  const coll::Comm fiber_b = session.comm(map.fiber(0, q1, q2, q3));
  const coll::Comm fiber_c = session.comm(map.fiber(1, q1, q2, q3));
  const coll::Comm fiber_a = session.comm(map.fiber(2, q1, q2, q3));
  // Owned chunks, through the session's input hook.
  const std::vector<T> a_local = session.input(
      0, [&] { return fill_chunk_pattern<T>(layout.a, cfg.integer_inputs); });
  const std::vector<T> b_local = session.input(
      1, [&] { return fill_chunk_pattern<T>(layout.b, cfg.integer_inputs); });

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
  constexpr i64 kElemBytes = ScalarTraits<T>::elem_bytes;

  // Line 3: All-Gather A across the fiber (q1, q2, :).
  const camb::WorkingSet a_ws(ctx, layout.a.block_size(), kElemBytes);
  if (t0 < 1) {
    ctx.set_phase(kPhaseAllgatherAId);
    a_flat =
        coll::allgather(fiber_a, layout.a_counts, a_local, cfg.allgather);
    session.boundary(1, [&] { return snapshot_of<T>({a_flat}); });
  }

  // Line 4: All-Gather B across the fiber (:, q2, q3).
  const camb::WorkingSet b_ws(ctx, layout.b.block_size(), kElemBytes);
  if (t0 < 2) {
    ctx.set_phase(kPhaseAllgatherBId);
    b_flat =
        coll::allgather(fiber_b, layout.b_counts, b_local, cfg.allgather);
    session.boundary(2, [&] { return snapshot_of<T>({a_flat, b_flat}); });
  }

  const camb::WorkingSet d_ws(ctx, layout.c.block_size(), kElemBytes);
  if (t0 < 3) {
    // Line 6: local multiply D = A_{q1 q2} * B_{q2 q3}.
    ctx.set_phase(kPhaseLocalGemmId);
    // The gathered panels become the operands and D's storage the
    // reduce-scatter input: moves, not copies.
    Matrix<T> d_block =
        gemm(Matrix<T>(layout.a.rows, layout.a.cols, std::move(a_flat)),
             Matrix<T>(layout.b.rows, layout.b.cols, std::move(b_flat)));

    // Line 8: Reduce-Scatter D across the fiber (q1, :, q3).
    ctx.set_phase(kPhaseReduceScatterCId);
    std::vector<T> d_flat = std::move(d_block).release();
    out.c_data = coll::reduce_scatter(fiber_c, layout.c_counts, d_flat,
                                      cfg.reduce_scatter);
    CAMB_CHECK(static_cast<i64>(out.c_data.size()) == layout.c.flat_size);
    session.boundary(3, [&] { return snapshot_of<T>({out.c_data}); });
  }
  return out;
}

template <typename T>
Grid3dRankOutputT<T> grid3d_rank(RankCtx& ctx, const Grid3dConfig& cfg) {
  ckpt::PlainSessionT<T> session(ctx);
  return grid3d_body<T>(session, cfg);
}

#define CAMB_INSTANTIATE(T)                                                  \
  template Grid3dRankOutputT<T> grid3d_body<T>(ckpt::PlainSessionT<T>&,      \
                                               const Grid3dConfig&);         \
  template Grid3dRankOutputT<T> grid3d_body<T>(ckpt::SessionT<T>&,           \
                                               const Grid3dConfig&);         \
  template Grid3dRankOutputT<T> grid3d_body<T>(ckpt::ElasticSessionT<T>&,    \
                                               const Grid3dConfig&);         \
  template Grid3dRankOutputT<T> grid3d_rank<T>(RankCtx&, const Grid3dConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 grid3d_ckpt_steps(const Grid3dConfig& cfg) {
  (void)cfg;
  return 3;
}

i64 grid3d_ckpt_snapshot_words(const Grid3dConfig& cfg, int logical,
                               i64 step) {
  const Grid3dLayout layout = grid3d_layout(cfg, logical);
  if (step == 1) return snapshot_wire_words({layout.a.block_size()});
  if (step == 2) {
    return snapshot_wire_words(
        {layout.a.block_size(), layout.b.block_size()});
  }
  return snapshot_wire_words({layout.c.flat_size});
}

i64 grid3d_predicted_recv_words(const Grid3dConfig& cfg, int rank) {
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(rank);
  const Grid3dLayout layout = grid3d_layout(cfg, rank);
  i64 words = 0;
  words += coll::allgather_recv_words_exact(layout.a_counts,
                                            static_cast<int>(q3), cfg.allgather);
  words += coll::allgather_recv_words_exact(layout.b_counts,
                                            static_cast<int>(q1), cfg.allgather);
  words += coll::reduce_scatter_recv_words_exact(
      layout.c_counts, static_cast<int>(q2), cfg.reduce_scatter);
  return words;
}

i64 grid3d_predicted_critical_recv_words(const Grid3dConfig& cfg) {
  i64 worst = 0;
  const i64 P = cfg.grid.total();
  for (i64 r = 0; r < P; ++r) {
    worst = std::max(worst,
                     grid3d_predicted_recv_words(cfg, static_cast<int>(r)));
  }
  return worst;
}

}  // namespace camb::mm
