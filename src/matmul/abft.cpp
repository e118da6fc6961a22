#include "matmul/abft.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "collectives/allreduce.hpp"
#include "collectives/bcast.hpp"
#include "collectives/coll_cost.hpp"
#include "collectives/reduce.hpp"
#include "collectives/shrink.hpp"
#include "machine/faults.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

namespace {

int rank_of(i64 i, i64 j, i64 g) { return static_cast<int>(i * g + j); }

/// The checksum-exact fill.  Exact scalars use the plain indexed pattern —
/// integer arithmetic never rounds, so sums are order-independent without
/// any input restriction.  Floating-point scalars still need the
/// integer-valued pattern for bit-exact, order-independent checksums.
template <typename T>
std::vector<T> abft_fill(const BlockChunk& chunk) {
  if constexpr (ScalarTraits<T>::exact) {
    return fill_chunk_indexed<T>(chunk);
  } else {
    return fill_chunk_indexed_int<T>(chunk);
  }
}

/// Regenerate a full block with the checksum-exact pattern.
template <typename T>
Matrix<T> regen_block(const BlockDist1D& rows, i64 ri, const BlockDist1D& cols,
                      i64 ci) {
  const BlockChunk chunk = full_block(rows, ri, cols, ci);
  return Matrix<T>(chunk.rows, chunk.cols, abft_fill<T>(chunk));
}

/// Zero-pad a matrix to rmax x cmax, row-major (padding below and right).
template <typename T>
std::vector<T> pad_matrix(const Matrix<T>& m, i64 rmax, i64 cmax) {
  CAMB_CHECK(rmax >= m.rows() && cmax >= m.cols());
  std::vector<T> out(static_cast<std::size_t>(rmax * cmax),
                     ScalarTraits<T>::zero());
  for (i64 ri = 0; ri < m.rows(); ++ri) {
    std::copy(m.data() + ri * m.cols(), m.data() + (ri + 1) * m.cols(),
              out.begin() + ri * cmax);
  }
  return out;
}

std::vector<int> world_group(int nprocs) {
  std::vector<int> world(static_cast<std::size_t>(nprocs));
  std::iota(world.begin(), world.end(), 0);
  return world;
}

/// Degraded local completion of checksum SUMMA: recompute this rank's tile
/// and the checksums it holds from regenerated inputs (every input block is
/// a pure function of its global position, so nothing is lost).
template <typename T>
void summa_abft_complete_locally(const SummaAbftConfig& cfg, i64 i, i64 j,
                                 SummaAbftOutputT<T>& out) {
  const i64 g = cfg.base.g;
  const BlockDist1D d1(cfg.base.shape.n1, g), d2(cfg.base.shape.n2, g),
      d3(cfg.base.shape.n3, g);
  const i64 d1max = d1.size(0), d3max = d3.size(0);
  const bool hold_s = (i == 0);
  const bool hold_r = (j == 0);
  const bool is_corner = (i == g - 1 && j == g - 1);
  out.own.block = Matrix<T>(d1.size(i), d3.size(j));
  if (hold_s) out.s_sum = Matrix<T>(d1max, d3.size(j));
  if (hold_r) out.r_sum = Matrix<T>(d1.size(i), d3max);
  if (is_corner) out.t_sum = Matrix<T>(d1max, d3max);
  for (i64 t = 0; t < g; ++t) {
    const Matrix<T> a_t = regen_block<T>(d1, i, d2, t);
    const Matrix<T> b_t = regen_block<T>(d2, t, d3, j);
    gemm_accumulate(a_t, b_t, out.own.block);
    // The panel sums the encode reduces: every A_{., t} padded to d1max
    // rows, every B_{t, .} padded to d3max columns.
    Matrix<T> asum_t(d1max, d2.size(t)), bsum_t(d2.size(t), d3max);
    if (hold_s || is_corner) {
      for (i64 i2 = 0; i2 < g; ++i2) {
        asum_t.add_block(0, 0, regen_block<T>(d1, i2, d2, t));
      }
    }
    if (hold_r || is_corner) {
      for (i64 j2 = 0; j2 < g; ++j2) {
        bsum_t.add_block(0, 0, regen_block<T>(d2, t, d3, j2));
      }
    }
    if (hold_s) gemm_accumulate(asum_t, b_t, out.s_sum);
    if (hold_r) gemm_accumulate(a_t, bsum_t, out.r_sum);
    if (is_corner) gemm_accumulate(asum_t, bsum_t, out.t_sum);
  }
}

/// The plain-run tail of checksum SUMMA: crash agreement, then the
/// reconstruction of a dead rank's tile by the survivors.
template <typename T>
void summa_abft_recover(RankCtx& ctx, const SummaAbftConfig& cfg,
                        SummaAbftOutputT<T>& out, bool abandoned) {
  const i64 g = cfg.base.g;
  const BlockDist1D d1(cfg.base.shape.n1, g), d3(cfg.base.shape.n3, g);
  const i64 d1max = d1.size(0), d3max = d3.size(0);

  // Agreement: every survivor learns the same failed set.  The recovery
  // world comm leases from the recovery cursor, which abandonment does not
  // touch, so clean and abandoned survivors agree on its tags.
  ctx.set_phase(kPhaseAbftShrinkId);
  const coll::Comm rec_world =
      coll::Comm::recovery(ctx, world_group(ctx.nprocs()));
  const coll::ShrinkResult agreed =
      coll::shrink(rec_world, cfg.max_failures, abandoned);
  out.abandoned = abandoned;
  out.failed = agreed.failed;
  if (agreed.failed.empty()) return;
  if (agreed.failed.size() > 1) {
    std::ostringstream msg;
    msg << "checksum SUMMA can reconstruct at most one failed rank; lost "
        << agreed.failed.size() << " ranks";
    throw Error(msg.str());
  }

  // Reconstruction: subtract the survivors' tiles from the checksum that
  // covers the dead tile.  Which checksum depends on where the dead rank
  // sat: S_dj unless the dead rank was its host (row 0), then R_0 unless
  // the dead rank was (0, 0) itself, then the corner total T.
  ctx.set_phase(kPhaseAbftRecoverId);
  const int dead = agreed.failed.front();
  const i64 di = dead / g, dj = dead % g;
  enum class Pad { kRows, kCols, kBoth } pad_mode;
  int host = -1;
  std::vector<int> contributors;
  const Matrix<T>* checksum = nullptr;
  if (di != 0) {
    pad_mode = Pad::kRows;
    host = rank_of(0, dj, g);
    for (i64 i2 = 0; i2 < g; ++i2) {
      if (const int r = rank_of(i2, dj, g); r != dead) contributors.push_back(r);
    }
    checksum = &out.s_sum;
  } else if (dj != 0) {
    pad_mode = Pad::kCols;
    host = rank_of(0, 0, g);
    for (i64 j2 = 0; j2 < g; ++j2) {
      if (const int r = rank_of(0, j2, g); r != dead) contributors.push_back(r);
    }
    checksum = &out.r_sum;
  } else {
    pad_mode = Pad::kBoth;
    host = rank_of(g - 1, g - 1, g);
    for (int r = 0; r < ctx.nprocs(); ++r) {
      if (r != dead) contributors.push_back(r);
    }
    checksum = &out.t_sum;
  }
  // Every survivor constructs the contributor comm — non-members included —
  // so the recovery lease sequence stays uniform; only members reduce.
  const coll::Comm rec_contrib = coll::Comm::recovery(ctx, contributors);
  if (!rec_contrib.member()) {
    return;  // this survivor holds no piece of the covering checksum
  }
  const i64 pad_r = (pad_mode == Pad::kCols) ? d1.size(0) : d1max;
  const i64 pad_c = (pad_mode == Pad::kRows) ? d3.size(dj) : d3max;
  const std::vector<T> survivor_sum =
      coll::reduce(rec_contrib, rec_contrib.index_of(host),
                   pad_matrix(out.own.block, pad_r, pad_c));
  if (ctx.rank() == host) {
    RecoveredBlock2DT<T> rec;
    rec.rank = dead;
    rec.out.row0 = d1.start(di);
    rec.out.col0 = d3.start(dj);
    rec.out.block = Matrix<T>(d1.size(di), d3.size(dj));
    for (i64 r = 0; r < rec.out.block.rows(); ++r) {
      for (i64 c = 0; c < rec.out.block.cols(); ++c) {
        rec.out.block(r, c) = (*checksum)(r, c) -
                              survivor_sum[static_cast<std::size_t>(
                                  r * pad_c + c)];
      }
    }
    out.recovered.push_back(std::move(rec));
  }
}

}  // namespace

template <typename T, typename Session>
SummaAbftOutputT<T> summa_abft_body(Session& session,
                                    const SummaAbftConfig& cfg) {
  RankCtx& ctx = session.ctx();
  const i64 g = cfg.base.g;
  CAMB_CHECK_MSG(g * g == session.nprocs(), "SUMMA machine size must be g*g");
  CAMB_CHECK_MSG(g >= 2, "checksum-augmented SUMMA needs grid edge g >= 2");
  CAMB_CHECK_MSG(cfg.max_failures >= 0, "max_failures must be non-negative");
  const i64 i = session.rank() / g;
  const i64 j = session.rank() % g;
  const BlockDist1D d1(cfg.base.shape.n1, g), d2(cfg.base.shape.n2, g),
      d3(cfg.base.shape.n3, g);
  const i64 d1max = d1.size(0);  // near-equal split: piece 0 is largest
  const i64 d3max = d3.size(0);

  // Owned blocks (checksum-exact pattern: see abft_fill on exactness).
  const std::vector<T> a_own = abft_fill<T>(full_block(d1, i, d2, j));
  const std::vector<T> b_own = abft_fill<T>(full_block(d2, i, d3, j));

  SummaAbftOutputT<T> out;
  out.own.row0 = d1.start(i);
  out.own.col0 = d3.start(j);
  out.own.block = Matrix<T>(d1.size(i), d3.size(j));

  // Checksum holders: S_j on row 0, R_i on column 0, T on the corner.  They
  // accumulate in place in the output, which exports them for the runner's
  // single-error correction pass (summa_abft_correct).
  const bool hold_s = (i == 0);
  const bool hold_r = (j == 0);
  const bool is_corner = (i == g - 1 && j == g - 1);
  if (hold_s) out.s_sum = Matrix<T>(d1max, d3.size(j));
  if (hold_r) out.r_sum = Matrix<T>(d1.size(i), d3max);
  if (is_corner) out.t_sum = Matrix<T>(d1max, d3max);

  // Fibers of the g x g grid; each fiber serves 2 collectives per stage plus
  // (on the extreme row/column) one forwarding block, so size the leases to
  // the stage count.
  const int fiber_blocks = std::max(coll::Comm::kDefaultTagBlocks,
                                    static_cast<int>(2 * g) + 2);
  const GridMap map(Grid3{g, g, 1});
  const coll::Comm my_row = session.comm(map.fiber(1, i, j, 0), fiber_blocks);
  const coll::Comm my_col = session.comm(map.fiber(0, i, j, 0), fiber_blocks);
  // Tag blocks for the per-stage checksum forwards to the corner: one block
  // on the corner's column fiber (taken by all its members, in lockstep) and
  // one on its row fiber; stage t uses offset t.
  const int fwd_a_tags = (j == g - 1) ? my_col.take_tag_block() : 0;
  const int fwd_b_tags = (i == g - 1) ? my_row.take_tag_block() : 0;
  CAMB_CHECK_MSG(g < kTagBlockWidth, "grid edge too large for one tag block");

  // The stage loop, with a boundary after every stage: the snapshot is the
  // tile plus whichever checksums this rank holds.
  std::vector<Matrix<T>*> state = {&out.own.block};
  if (hold_s) state.push_back(&out.s_sum);
  if (hold_r) state.push_back(&out.r_sum);
  if (is_corner) state.push_back(&out.t_sum);
  const auto stages = [&] {
    const i64 t0 = session.resume_step();
    if (session.restored()) {
      const SnapshotT<T>& snap = session.snapshot();
      CAMB_CHECK(snap.bufs.size() == state.size());
      for (std::size_t b = 0; b < state.size(); ++b) {
        CAMB_CHECK(static_cast<i64>(snap.bufs[b].size()) == state[b]->size());
        std::copy(snap.bufs[b].begin(), snap.bufs[b].end(), state[b]->data());
      }
    }
    for (i64 t = t0; t < g; ++t) {
      // Base SUMMA stage: A block-column t along rows, B block-row t along
      // columns, local accumulate.
      ctx.set_phase(kPhaseSummaBcastAId);
      std::vector<T> a_panel = (t == j) ? a_own : std::vector<T>{};
      const i64 a_rows = d1.size(i), a_cols = d2.size(t);
      coll::bcast(my_row, static_cast<int>(t), a_panel, a_rows * a_cols,
                  cfg.base.bcast, cfg.base.bcast_segments);

      ctx.set_phase(kPhaseSummaBcastBId);
      std::vector<T> b_panel = (t == i) ? b_own : std::vector<T>{};
      const i64 b_rows = d2.size(t), b_cols = d3.size(j);
      coll::bcast(my_col, static_cast<int>(t), b_panel, b_rows * b_cols,
                  cfg.base.bcast, cfg.base.bcast_segments);

      ctx.set_phase(kPhaseSummaGemmId);
      const Matrix<T> a_mat(a_rows, a_cols, std::move(a_panel));
      const Matrix<T> b_mat(b_rows, b_cols, std::move(b_panel));
      gemm_accumulate(a_mat, b_mat, out.own.block);

      // Encode: column fibers reduce row-padded A panels to row 0, row
      // fibers reduce column-padded B panels to column 0, and the extreme
      // roots forward the sums to the corner.
      ctx.set_phase(kPhaseAbftEncodeId);
      std::vector<T> asum =
          coll::reduce(my_col, 0, pad_matrix(a_mat, d1max, a_cols));
      std::vector<T> bsum =
          coll::reduce(my_row, 0, pad_matrix(b_mat, b_rows, d3max));
      if (i == 0 && j == g - 1) {
        my_col.send(static_cast<int>(g - 1),
                    fwd_a_tags + static_cast<int>(t), Buffer::pack<T>(asum));
      }
      if (i == g - 1 && j == 0) {
        my_row.send(static_cast<int>(g - 1),
                    fwd_b_tags + static_cast<int>(t), Buffer::pack<T>(bsum));
      }
      if (hold_s) {
        // S_j += (sum_i pad(A_it)) * B_tj  ==  sum_i pad_rows(A_it B_tj).
        gemm_accumulate(Matrix<T>(d1max, a_cols, std::move(asum)), b_mat,
                        out.s_sum);
      }
      if (hold_r) {
        gemm_accumulate(a_mat, Matrix<T>(b_rows, d3max, std::move(bsum)),
                        out.r_sum);
      }
      if (is_corner) {
        std::vector<T> asum_c =
            std::move(my_col.recv(0, fwd_a_tags + static_cast<int>(t)))
                .template take_as<T>();
        std::vector<T> bsum_c =
            std::move(my_row.recv(0, fwd_b_tags + static_cast<int>(t)))
                .template take_as<T>();
        gemm_accumulate(Matrix<T>(d1max, d2.size(t), std::move(asum_c)),
                        Matrix<T>(d2.size(t), d3max, std::move(bsum_c)),
                        out.t_sum);
      }

      session.boundary(t + 1, [&] {
        SnapshotT<T> snap;
        for (const Matrix<T>* m : state) {
          snap.bufs.emplace_back(m->data(), m->data() + m->size());
        }
        return snap;
      });
    }
  };

  if constexpr (Session::kRollback) {
    // A failure aborts the round and the machine re-executes from the last
    // committed epoch: no degraded path, no shrink, no reconstruction.
    stages();
  } else {
    bool abandoned = false;
    try {
      stages();
    } catch (const PeerFailedError&) {
      // A peer died or deviated: abandon the communication schedule (the
      // deviation cascades through every rank still expecting our messages)
      // and finish this rank's responsibilities locally.
      ctx.abandon();
      abandoned = true;
    }
    if (abandoned) summa_abft_complete_locally<T>(cfg, i, j, out);
    summa_abft_recover<T>(ctx, cfg, out, abandoned);
  }
  return out;
}

template <typename T>
SummaAbftOutputT<T> summa_abft_rank(RankCtx& ctx, const SummaAbftConfig& cfg) {
  ckpt::PlainSessionT<T> session(ctx);
  return summa_abft_body<T>(session, cfg);
}

#define CAMB_INSTANTIATE(T)                                 \
  template SummaAbftOutputT<T> summa_abft_body<T>(          \
      ckpt::PlainSessionT<T>&, const SummaAbftConfig&);     \
  template SummaAbftOutputT<T> summa_abft_body<T>(          \
      ckpt::SessionT<T>&, const SummaAbftConfig&);          \
  template SummaAbftOutputT<T> summa_abft_rank<T>(          \
      RankCtx&, const SummaAbftConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

namespace {

/// The plain-run tail of checksum Algorithm 1: crash agreement, then the
/// reconstruction of each dead rank's chunk by the survivors of its C fiber.
template <typename T>
void grid3d_abft_recover(RankCtx& ctx, const Grid3dAbftConfig& cfg,
                         const Grid3dConfig& base, i64 lmax,
                         Grid3dAbftOutputT<T>& out, bool abandoned) {
  const GridMap map(base.grid);
  ctx.set_phase(kPhaseAbftShrinkId);
  const coll::Comm rec_world =
      coll::Comm::recovery(ctx, world_group(ctx.nprocs()));
  const coll::ShrinkResult agreed =
      coll::shrink(rec_world, cfg.max_failures, abandoned);
  out.abandoned = abandoned;
  out.failed = agreed.failed;
  if (agreed.failed.empty()) return;

  // Reconstruction: for each dead rank, the survivors of its C fiber
  // subtract their chunks from the parity.  Dead ranks on distinct fibers
  // are independent (disjoint contributor groups, distinct tags).
  ctx.set_phase(kPhaseAbftRecoverId);
  if (base.grid.p2 < 2) {
    throw Error(
        "grid3d ABFT cannot recover any rank on a p2 = 1 grid: the parity "
        "fiber has a single member, so a crash erases the parity too");
  }
  for (std::size_t idx = 0; idx < out.failed.size(); ++idx) {
    const int dead = out.failed[idx];
    const auto [f1, f2, f3] = map.coords_of(dead);
    const std::vector<int> fiber = map.fiber(1, f1, f2, f3);
    std::vector<int> contributors;
    for (int r : fiber) {
      if (std::find(out.failed.begin(), out.failed.end(), r) ==
          out.failed.end()) {
        contributors.push_back(r);
      }
    }
    if (static_cast<i64>(contributors.size()) != base.grid.p2 - 1) {
      std::ostringstream msg;
      msg << "grid3d ABFT cannot recover rank " << dead << ": its C fiber has "
          << contributors.size() << " survivor(s) of " << base.grid.p2
          << " (parity tolerates exactly one loss per fiber)";
      throw Error(msg.str());
    }
    // Constructed by every survivor — members and non-members alike, in the
    // agreed failed-rank order — so the recovery lease sequence is uniform.
    const coll::Comm rec_contrib = coll::Comm::recovery(ctx, contributors);
    if (!rec_contrib.member()) continue;
    std::vector<T> padded = out.own.c_data;
    padded.resize(static_cast<std::size_t>(lmax), ScalarTraits<T>::zero());
    const int host = contributors.front();
    const std::vector<T> survivor_sum =
        coll::reduce(rec_contrib, 0, std::move(padded));
    if (ctx.rank() == host) {
      const Grid3dLayout dead_layout = grid3d_layout(base, dead);
      RecoveredChunk3DT<T> rec;
      rec.rank = dead;
      rec.c_chunk = dead_layout.c;
      rec.c_data.resize(static_cast<std::size_t>(dead_layout.c.flat_size));
      for (i64 k = 0; k < dead_layout.c.flat_size; ++k) {
        rec.c_data[static_cast<std::size_t>(k)] =
            out.parity[static_cast<std::size_t>(k)] -
            survivor_sum[static_cast<std::size_t>(k)];
      }
      out.recovered.push_back(std::move(rec));
    }
  }
}

}  // namespace

template <typename T, typename Session>
Grid3dAbftOutputT<T> grid3d_abft_body(Session& session,
                                      const Grid3dAbftConfig& cfg) {
  RankCtx& ctx = session.ctx();
  Grid3dConfig base = cfg.base;
  // Exact scalars keep the plain indexed fill (their sums never round);
  // floating-point instantiations force the integer-valued pattern.
  base.integer_inputs = !ScalarTraits<T>::exact;
  CAMB_CHECK_MSG(base.grid.total() == session.nprocs(),
                 "grid size must equal the machine size");
  CAMB_CHECK_MSG(cfg.max_failures >= 0, "max_failures must be non-negative");
  const GridMap map(base.grid);
  const auto [q1, q2, q3] = map.coords_of(session.rank());
  const Grid3dLayout layout = grid3d_layout(base, session.rank());
  // The C fiber comm for the parity encode, built before Algorithm 1 builds
  // its own three fibers.
  const coll::Comm c_fiber = session.comm(map.fiber(1, q1, q2, q3));
  i64 lmax = 0;
  for (i64 c : layout.c_counts) lmax = std::max(lmax, c);

  // Algorithm 1 itself is steps 1-3 (its own boundaries); the parity encode
  // is step 4, whose snapshot is {C chunk, parity} — Algorithm 1 restores
  // its chunk from the first buffer.
  Grid3dAbftOutputT<T> out;
  const auto run = [&] {
    out.own = grid3d_body<T>(session, base);
    if (session.resume_step() < 4) {
      // Encode: every C fiber All-Reduces the parity of its members' padded
      // chunks, so each member holds X = sum_q2 pad(chunk) (f = 1
      // redundancy).
      ctx.set_phase(kPhaseAbftEncodeId);
      std::vector<T> padded = out.own.c_data;
      padded.resize(static_cast<std::size_t>(lmax), ScalarTraits<T>::zero());
      out.parity = coll::allreduce(c_fiber, std::move(padded));
      session.boundary(4, [&] {
        return snapshot_of<T>({out.own.c_data, out.parity});
      });
    } else {
      out.parity = session.snapshot().bufs.at(1);
    }
  };

  if constexpr (Session::kRollback) {
    // A failure aborts the round and the machine re-executes from the last
    // committed epoch: no degraded path, no shrink, no reconstruction.
    run();
  } else {
    bool abandoned = false;
    try {
      run();
    } catch (const PeerFailedError&) {
      ctx.abandon();
      abandoned = true;
    }
    if (abandoned) {
      // Degraded local completion: recompute this rank's full C block (sum
      // over the q2 axis of regenerated inputs) and derive both the owned
      // chunk and the fiber parity from it.  Exact because the inputs are
      // integer-valued.
      const BlockDist1D d1(base.shape.n1, base.grid.p1),
          d2(base.shape.n2, base.grid.p2), d3(base.shape.n3, base.grid.p3);
      Matrix<T> c_full(layout.c.rows, layout.c.cols);
      for (i64 t = 0; t < base.grid.p2; ++t) {
        const Matrix<T> a_t = regen_block<T>(d1, q1, d2, t);
        const Matrix<T> b_t = regen_block<T>(d2, t, d3, q3);
        gemm_accumulate(a_t, b_t, c_full);
      }
      out.own.c_chunk = layout.c;
      out.own.c_data.assign(
          c_full.data() + layout.c.flat_start,
          c_full.data() + layout.c.flat_start + layout.c.flat_size);
      out.parity.assign(static_cast<std::size_t>(lmax),
                        ScalarTraits<T>::zero());
      const BlockDist1D flat(layout.c.block_size(), base.grid.p2);
      for (i64 m = 0; m < base.grid.p2; ++m) {
        for (i64 k = 0; k < flat.size(m); ++k) {
          out.parity[static_cast<std::size_t>(k)] +=
              c_full.data()[flat.start(m) + k];
        }
      }
    }
    grid3d_abft_recover<T>(ctx, cfg, base, lmax, out, abandoned);
  }
  return out;
}

template <typename T>
Grid3dAbftOutputT<T> grid3d_abft_rank(RankCtx& ctx,
                                      const Grid3dAbftConfig& cfg) {
  ckpt::PlainSessionT<T> session(ctx);
  return grid3d_abft_body<T>(session, cfg);
}

#define CAMB_INSTANTIATE(T)                                 \
  template Grid3dAbftOutputT<T> grid3d_abft_body<T>(        \
      ckpt::PlainSessionT<T>&, const Grid3dAbftConfig&);    \
  template Grid3dAbftOutputT<T> grid3d_abft_body<T>(        \
      ckpt::SessionT<T>&, const Grid3dAbftConfig&);         \
  template Grid3dAbftOutputT<T> grid3d_abft_rank<T>(        \
      RankCtx&, const Grid3dAbftConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 summa_abft_predicted_recv_words(const SummaAbftConfig& cfg, int rank) {
  const i64 g = cfg.base.g;
  const i64 i = rank / g, j = rank % g;
  const BlockDist1D d1(cfg.base.shape.n1, g), d2(cfg.base.shape.n2, g),
      d3(cfg.base.shape.n3, g);
  const i64 d1max = d1.size(0), d3max = d3.size(0);
  i64 words = summa_predicted_recv_words(cfg.base, rank);
  for (i64 t = 0; t < g; ++t) {
    // Encode reduces (member index == root-relative index: root_idx is 0).
    words += coll::reduce_recv_words_exact(static_cast<int>(g),
                                           static_cast<int>(i),
                                           d1max * d2.size(t));
    words += coll::reduce_recv_words_exact(static_cast<int>(g),
                                           static_cast<int>(j),
                                           d2.size(t) * d3max);
    if (i == g - 1 && j == g - 1) {  // forwarded panel sums to the corner
      words += d1max * d2.size(t) + d2.size(t) * d3max;
    }
  }
  words += coll::shrink_recv_words_exact(static_cast<int>(g * g),
                                         cfg.max_failures);
  return words;
}

i64 summa_abft_ckpt_steps(const SummaAbftConfig& cfg) { return cfg.base.g; }

i64 summa_abft_ckpt_snapshot_words(const SummaAbftConfig& cfg, int logical,
                                   i64 step) {
  (void)step;  // the checksum state has a fixed footprint across stages
  const i64 g = cfg.base.g;
  const i64 i = logical / g, j = logical % g;
  const BlockDist1D d1(cfg.base.shape.n1, g), d3(cfg.base.shape.n3, g);
  const i64 d1max = d1.size(0), d3max = d3.size(0);
  std::vector<i64> sizes = {d1.size(i) * d3.size(j)};
  if (i == 0) sizes.push_back(d1max * d3.size(j));
  if (j == 0) sizes.push_back(d1.size(i) * d3max);
  if (i == g - 1 && j == g - 1) sizes.push_back(d1max * d3max);
  return snapshot_wire_words(sizes);
}

i64 summa_abft_ckpt_base_recv_words(const SummaAbftConfig& cfg, int rank) {
  return summa_abft_predicted_recv_words(cfg, rank) -
         coll::shrink_recv_words_exact(
             static_cast<int>(cfg.base.g * cfg.base.g), cfg.max_failures);
}

i64 grid3d_abft_ckpt_steps(const Grid3dAbftConfig& cfg) {
  (void)cfg;
  return 4;
}

i64 grid3d_abft_ckpt_snapshot_words(const Grid3dAbftConfig& cfg, int logical,
                                    i64 step) {
  // Steps 1-3 are Algorithm 1's; step 4 adds the fiber parity.
  if (step < 4) return grid3d_ckpt_snapshot_words(cfg.base, logical, step);
  const Grid3dLayout layout = grid3d_layout(cfg.base, logical);
  i64 lmax = 0;
  for (i64 c : layout.c_counts) lmax = std::max(lmax, c);
  return snapshot_wire_words({layout.c.flat_size, lmax});
}

i64 grid3d_abft_ckpt_base_recv_words(const Grid3dAbftConfig& cfg, int rank) {
  return grid3d_abft_predicted_recv_words(cfg, rank) -
         coll::shrink_recv_words_exact(
             static_cast<int>(cfg.base.grid.total()), cfg.max_failures);
}

template <typename T>
AbftCorrection summa_abft_correct(const SummaAbftConfig& cfg,
                                  std::vector<SummaAbftOutputT<T>>& outputs) {
  const i64 g = cfg.base.g;
  CAMB_CHECK_MSG(static_cast<i64>(outputs.size()) == g * g,
                 "correction needs every rank's output");
  const BlockDist1D d1(cfg.base.shape.n1, g), d3(cfg.base.shape.n3, g);
  const i64 d1max = d1.size(0);
  const T zero = ScalarTraits<T>::zero();

  // A corrupted cell at local (r, c) of tile (i*, j*) shows up at exactly
  // (r, c) in both its column syndrome D_{j*} (row padding keeps local rows)
  // and its row syndrome E_{i*} (column padding keeps local columns), with the
  // same magnitude — all sums are exact (integer-valued pattern, or native
  // integer arithmetic for exact scalars), so clean cells have syndrome
  // exactly zero.
  struct Hit {
    i64 block = -1;  // j for column hits, i for row hits
    i64 r = 0;
    i64 c = 0;
    T delta{};
  };
  std::vector<Hit> col_hits, row_hits;
  for (i64 j = 0; j < g; ++j) {
    const Matrix<T>& s =
        outputs[static_cast<std::size_t>(rank_of(0, j, g))].s_sum;
    CAMB_CHECK_MSG(s.rows() == d1max && s.cols() == d3.size(j),
                   "correction needs the checksums of a crash-free run");
    Matrix<T> d(d1max, d3.size(j));
    for (i64 i = 0; i < g; ++i) {
      const Matrix<T>& tile =
          outputs[static_cast<std::size_t>(rank_of(i, j, g))].own.block;
      for (i64 r = 0; r < tile.rows(); ++r) {
        for (i64 c = 0; c < tile.cols(); ++c) d(r, c) += tile(r, c);
      }
    }
    for (i64 r = 0; r < d.rows(); ++r) {
      for (i64 c = 0; c < d.cols(); ++c) {
        const T delta = d(r, c) - s(r, c);
        if (delta != zero) col_hits.push_back(Hit{j, r, c, delta});
      }
    }
  }
  for (i64 i = 0; i < g; ++i) {
    const Matrix<T>& rsum =
        outputs[static_cast<std::size_t>(rank_of(i, 0, g))].r_sum;
    CAMB_CHECK_MSG(rsum.rows() == d1.size(i),
                   "correction needs the checksums of a crash-free run");
    Matrix<T> e(d1.size(i), rsum.cols());
    for (i64 j = 0; j < g; ++j) {
      const Matrix<T>& tile =
          outputs[static_cast<std::size_t>(rank_of(i, j, g))].own.block;
      for (i64 r = 0; r < tile.rows(); ++r) {
        for (i64 c = 0; c < tile.cols(); ++c) e(r, c) += tile(r, c);
      }
    }
    for (i64 r = 0; r < e.rows(); ++r) {
      for (i64 c = 0; c < e.cols(); ++c) {
        const T delta = e(r, c) - rsum(r, c);
        if (delta != zero) row_hits.push_back(Hit{i, r, c, delta});
      }
    }
  }

  AbftCorrection result;
  if (col_hits.empty() && row_hits.empty()) return result;
  if (col_hits.size() == 1 && row_hits.size() == 1) {
    const Hit& ch = col_hits.front();
    const Hit& rh = row_hits.front();
    if (ch.r == rh.r && ch.c == rh.c && ch.delta == rh.delta) {
      const int rank = rank_of(rh.block, ch.block, g);
      Matrix<T>& tile = outputs[static_cast<std::size_t>(rank)].own.block;
      if (ch.r < tile.rows() && ch.c < tile.cols()) {
        tile(ch.r, ch.c) -= ch.delta;
        result.detected = 1;
        result.corrected = 1;
        result.corrected_ranks.push_back(rank);
        return result;
      }
    }
  }
  // More simultaneous errors than the single-error code localizes (or an
  // inconsistent intersection): report them for the Freivalds backstop.
  result.detected =
      static_cast<int>(std::max(col_hits.size(), row_hits.size()));
  result.uncorrected = result.detected;
  return result;
}

#define CAMB_INSTANTIATE(T)                 \
  template AbftCorrection summa_abft_correct<T>( \
      const SummaAbftConfig&, std::vector<SummaAbftOutputT<T>>&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

template <typename T>
AbftCorrection grid3d_abft_correct(
    const Grid3dAbftConfig& cfg, std::vector<Grid3dAbftOutputT<T>>& outputs,
    const std::type_identity_t<std::function<T(i64, i64)>>& expected_entry) {
  const GridMap map(cfg.base.grid);
  CAMB_CHECK_MSG(cfg.base.grid.total() == static_cast<i64>(outputs.size()),
                 "correction needs every rank's output");
  const T zero = ScalarTraits<T>::zero();
  AbftCorrection result;
  for (i64 q1 = 0; q1 < cfg.base.grid.p1; ++q1) {
    for (i64 q3 = 0; q3 < cfg.base.grid.p3; ++q3) {
      const std::vector<int> members = map.fiber(1, q1, 0, q3);
      const std::vector<T>& parity =
          outputs[static_cast<std::size_t>(members.front())].parity;
      CAMB_CHECK_MSG(!parity.empty() || cfg.base.shape.n1 == 0,
                     "correction needs the parities of a crash-free run");
      const i64 lmax = static_cast<i64>(parity.size());
      // Parity syndrome: the members' chunks overlap *elementwise* in the
      // fiber parity (each chunk padded to lmax), so a nonzero entry gives
      // the corrupted local element and magnitude but not the member.
      std::vector<T> syndrome(parity.size(), zero);
      for (int m : members) {
        const std::vector<T>& data =
            outputs[static_cast<std::size_t>(m)].own.c_data;
        for (std::size_t k = 0; k < data.size(); ++k) syndrome[k] += data[k];
      }
      for (i64 k = 0; k < lmax; ++k) {
        syndrome[static_cast<std::size_t>(k)] -=
            parity[static_cast<std::size_t>(k)];
        const T delta = syndrome[static_cast<std::size_t>(k)];
        if (delta == zero) continue;
        ++result.detected;
        // Disambiguate by recomputing the one expected entry per candidate
        // member: exactly one should disagree with it, by exactly delta.
        int culprit = -1;
        int mismatches = 0;
        for (int m : members) {
          const Grid3dRankOutputT<T>& own =
              outputs[static_cast<std::size_t>(m)].own;
          if (k >= static_cast<i64>(own.c_data.size())) continue;
          const i64 flat = own.c_chunk.flat_start + k;
          const T expected =
              expected_entry(own.c_chunk.row0 + flat / own.c_chunk.cols,
                             own.c_chunk.col0 + flat % own.c_chunk.cols);
          const T actual = own.c_data[static_cast<std::size_t>(k)];
          if (actual != expected) {
            ++mismatches;
            if (actual - expected == delta) culprit = m;
          }
        }
        if (mismatches == 1 && culprit >= 0) {
          outputs[static_cast<std::size_t>(culprit)]
              .own.c_data[static_cast<std::size_t>(k)] -= delta;
          ++result.corrected;
          result.corrected_ranks.push_back(culprit);
        } else {
          ++result.uncorrected;
        }
      }
    }
  }
  std::sort(result.corrected_ranks.begin(), result.corrected_ranks.end());
  result.corrected_ranks.erase(std::unique(result.corrected_ranks.begin(),
                                           result.corrected_ranks.end()),
                               result.corrected_ranks.end());
  return result;
}

#define CAMB_INSTANTIATE(T)                                         \
  template AbftCorrection grid3d_abft_correct<T>(                   \
      const Grid3dAbftConfig&, std::vector<Grid3dAbftOutputT<T>>&,  \
      const std::type_identity_t<std::function<T(i64, i64)>>&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 grid3d_abft_predicted_recv_words(const Grid3dAbftConfig& cfg, int rank) {
  const GridMap map(cfg.base.grid);
  const auto [q1, q2, q3] = map.coords_of(rank);
  (void)q1;
  (void)q3;
  const Grid3dLayout layout = grid3d_layout(cfg.base, rank);
  i64 lmax = 0;
  for (i64 c : layout.c_counts) lmax = std::max(lmax, c);
  i64 words = grid3d_predicted_recv_words(cfg.base, rank);
  words += coll::allreduce_recv_words_exact(static_cast<int>(cfg.base.grid.p2),
                                            static_cast<int>(q2), lmax);
  words += coll::shrink_recv_words_exact(
      static_cast<int>(cfg.base.grid.total()), cfg.max_failures);
  return words;
}

}  // namespace camb::mm
