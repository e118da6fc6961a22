#include "matmul/grid3d_staged.hpp"

#include "collectives/coll_cost.hpp"
#include "core/cost_eq3.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

namespace {

/// Per-fiber-member counts for gathering the flat sub-range [lo, hi) of a
/// block whose full flat extent is split near-equally across the fiber.
std::vector<i64> overlap_counts(const BlockDist1D& fiber_split, i64 lo, i64 hi) {
  std::vector<i64> counts(static_cast<std::size_t>(fiber_split.parts()));
  for (i64 t = 0; t < fiber_split.parts(); ++t) {
    const i64 a = std::max(lo, fiber_split.start(t));
    const i64 b = std::min(hi, fiber_split.end(t));
    counts[static_cast<std::size_t>(t)] = std::max<i64>(0, b - a);
  }
  return counts;
}

}  // namespace

template <typename T, typename Session>
Grid3dStagedRankOutputT<T> grid3d_staged_body(Session& session,
                                              const Grid3dStagedConfig& cfg) {
  RankCtx& ctx = session.ctx();
  CAMB_CHECK_MSG(cfg.stages >= 1, "stages must be >= 1");
  CAMB_CHECK_MSG(cfg.grid.total() == session.nprocs(),
                 "grid size must equal the machine size");
  const int me = session.rank();
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(me);
  const Grid3dConfig base{cfg.shape, cfg.grid, cfg.allgather,
                          cfg.reduce_scatter};
  const Grid3dLayout layout = grid3d_layout(base, me);
  // Every stage runs one collective per fiber; size the fiber leases to the
  // stage count so deep stagings never exhaust them.
  const int fiber_blocks =
      std::max(coll::Comm::kDefaultTagBlocks, static_cast<int>(cfg.stages) + 1);
  const coll::Comm fiber_b =
      session.comm(map.fiber(0, q1, q2, q3), fiber_blocks);
  const coll::Comm fiber_c =
      session.comm(map.fiber(1, q1, q2, q3), fiber_blocks);
  const coll::Comm fiber_a =
      session.comm(map.fiber(2, q1, q2, q3), fiber_blocks);

  const BlockDist1D a_fiber_split(layout.a.block_size(), cfg.grid.p3);
  const BlockDist1D strips(layout.a.rows, cfg.stages);
  constexpr i64 kElemBytes = ScalarTraits<T>::elem_bytes;

  std::vector<T> b_flat;
  Matrix<T> b_block(layout.b.rows, layout.b.cols);
  Grid3dStagedRankOutputT<T> out;
  out.c_chunks.reserve(static_cast<std::size_t>(cfg.stages));
  out.c_data.reserve(static_cast<std::size_t>(cfg.stages));

  // Stage σ's owned C piece: its strip of D split across the p2 fiber.
  auto chunk_of_stage = [&](i64 stage) {
    const i64 r0 = strips.start(stage);
    const BlockDist1D seg((strips.end(stage) - r0) * layout.c.cols,
                          cfg.grid.p2);
    BlockChunk c_chunk = layout.c;
    c_chunk.flat_start = r0 * layout.c.cols + seg.start(q2);
    c_chunk.flat_size = seg.size(q2);
    return c_chunk;
  };
  // Boundary 1 follows the B all-gather, boundary 1 + σ + 1 stage σ; each
  // snapshot carries B plus every completed stage's C piece.
  const auto snapshot = [&] {
    SnapshotT<T> snap;
    snap.bufs.push_back(b_flat);
    for (const auto& owned : out.c_data) snap.bufs.push_back(owned);
    return snap;
  };

  const i64 t0 = session.resume_step();
  if (session.restored()) {
    const SnapshotT<T>& snap = session.snapshot();
    CAMB_CHECK(static_cast<i64>(snap.bufs.size()) == t0);
    b_flat = snap.bufs.at(0);
    std::copy(b_flat.begin(), b_flat.end(), b_block.data());
    for (i64 stage = 0; stage + 1 < t0; ++stage) {
      out.c_chunks.push_back(chunk_of_stage(stage));
      out.c_data.push_back(snap.bufs.at(static_cast<std::size_t>(stage + 1)));
    }
  }

  // B is gathered once, up front, exactly as in the unstaged algorithm, and
  // held for the whole body.
  const camb::WorkingSet b_ws(ctx, layout.b.block_size(), kElemBytes);
  if (t0 < 1) {
    ctx.set_phase(kPhaseAllgatherBId);
    b_flat = coll::allgather(fiber_b, layout.b_counts,
                             fill_chunk_indexed<T>(layout.b), cfg.allgather);
    std::copy(b_flat.begin(), b_flat.end(), b_block.data());
    session.boundary(1, snapshot);
  }

  for (i64 stage = std::max<i64>(t0 - 1, 0); stage < cfg.stages; ++stage) {
    // Stage strip: rows [r0, r1) of the local A block (and of D).
    const i64 r0 = strips.start(stage);
    const i64 r1 = strips.end(stage);
    const i64 lo = r0 * layout.a.cols;
    const i64 hi = r1 * layout.a.cols;

    // All-Gather only this strip of A (+ its strip of D below): the staged
    // working set this variant exists to shrink.
    ctx.set_phase(kPhaseAllgatherAId);
    const camb::WorkingSet strip_ws(
        ctx, (hi - lo) + (r1 - r0) * layout.c.cols, kElemBytes);
    const std::vector<i64> counts = overlap_counts(a_fiber_split, lo, hi);
    BlockChunk my_piece = layout.a;
    my_piece.flat_start = std::max(lo, a_fiber_split.start(q3));
    my_piece.flat_size = counts[static_cast<std::size_t>(q3)];
    std::vector<T> strip_flat = coll::allgather(
        fiber_a, counts, fill_chunk_indexed<T>(my_piece), cfg.allgather);
    CAMB_CHECK(static_cast<i64>(strip_flat.size()) == hi - lo);

    // Multiply the strip against the full B block.
    ctx.set_phase(kPhaseLocalGemmId);
    Matrix<T> d_strip =
        gemm(Matrix<T>(r1 - r0, layout.a.cols, std::move(strip_flat)),
             b_block);

    // Reduce-Scatter this strip of D across the p2 fiber immediately.
    ctx.set_phase(kPhaseReduceScatterCId);
    const BlockDist1D seg(d_strip.size(), cfg.grid.p2);
    std::vector<T> d_flat = std::move(d_strip).release();
    out.c_data.push_back(coll::reduce_scatter(fiber_c, seg.counts(), d_flat,
                                              cfg.reduce_scatter));
    out.c_chunks.push_back(chunk_of_stage(stage));
    session.boundary(stage + 2, snapshot);
  }
  return out;
}

template <typename T>
Grid3dStagedRankOutputT<T> grid3d_staged_rank(RankCtx& ctx,
                                              const Grid3dStagedConfig& cfg) {
  ckpt::PlainSessionT<T> session(ctx);
  return grid3d_staged_body<T>(session, cfg);
}

#define CAMB_INSTANTIATE(T)                                     \
  template Grid3dStagedRankOutputT<T> grid3d_staged_body<T>(    \
      ckpt::PlainSessionT<T>&, const Grid3dStagedConfig&);      \
  template Grid3dStagedRankOutputT<T> grid3d_staged_body<T>(    \
      ckpt::SessionT<T>&, const Grid3dStagedConfig&);           \
  template Grid3dStagedRankOutputT<T> grid3d_staged_rank<T>(    \
      RankCtx&, const Grid3dStagedConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 grid3d_staged_ckpt_steps(const Grid3dStagedConfig& cfg) {
  return cfg.stages + 1;
}

i64 grid3d_staged_ckpt_snapshot_words(const Grid3dStagedConfig& cfg,
                                      int logical, i64 step) {
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(logical);
  (void)q1;
  (void)q3;
  const Grid3dConfig base{cfg.shape, cfg.grid, cfg.allgather,
                          cfg.reduce_scatter};
  const Grid3dLayout layout = grid3d_layout(base, logical);
  const BlockDist1D strips(layout.a.rows, cfg.stages);
  std::vector<i64> sizes{layout.b.block_size()};
  for (i64 stage = 0; stage + 1 < step; ++stage) {
    const i64 strip_words =
        (strips.end(stage) - strips.start(stage)) * layout.c.cols;
    sizes.push_back(BlockDist1D(strip_words, cfg.grid.p2).size(q2));
  }
  return snapshot_wire_words(sizes);
}

i64 grid3d_staged_predicted_recv_words(const Grid3dStagedConfig& cfg,
                                       int rank) {
  const GridMap map(cfg.grid);
  const auto [q1, q2, q3] = map.coords_of(rank);
  const Grid3dConfig base{cfg.shape, cfg.grid, cfg.allgather,
                          cfg.reduce_scatter};
  const Grid3dLayout layout = grid3d_layout(base, rank);
  i64 words = coll::allgather_recv_words_exact(layout.b_counts,
                                               static_cast<int>(q1),
                                               cfg.allgather);
  const BlockDist1D a_fiber_split(layout.a.block_size(), cfg.grid.p3);
  const BlockDist1D strips(layout.a.rows, cfg.stages);
  for (i64 stage = 0; stage < cfg.stages; ++stage) {
    const i64 lo = strips.start(stage) * layout.a.cols;
    const i64 hi = strips.end(stage) * layout.a.cols;
    const std::vector<i64> counts = overlap_counts(a_fiber_split, lo, hi);
    words += coll::allgather_recv_words_exact(counts, static_cast<int>(q3),
                                              cfg.allgather);
    const i64 strip_words = (hi - lo) / layout.a.cols * layout.c.cols;
    const BlockDist1D seg(strip_words, cfg.grid.p2);
    words += coll::reduce_scatter_recv_words_exact(
        seg.counts(), static_cast<int>(q2), cfg.reduce_scatter);
  }
  return words;
}

double grid3d_staged_peak_memory_words(const Grid3dStagedConfig& cfg) {
  const auto terms = camb::core::alg1_positive_terms(cfg.shape, cfg.grid);
  const auto s = static_cast<double>(cfg.stages);
  // Full B, one A strip, one D strip.
  return terms.b_words + terms.a_words / s + terms.c_words / s;
}

i64 grid3d_staged_messages(const Grid3dStagedConfig& cfg, int rank) {
  (void)rank;  // every rank sends the same round counts
  const int p1 = static_cast<int>(cfg.grid.p1);
  const int p2 = static_cast<int>(cfg.grid.p2);
  const int p3 = static_cast<int>(cfg.grid.p3);
  return coll::allgather_rounds(p1, cfg.allgather) +
         cfg.stages * (coll::allgather_rounds(p3, cfg.allgather) +
                       coll::reduce_scatter_rounds(p2, cfg.reduce_scatter));
}

}  // namespace camb::mm
