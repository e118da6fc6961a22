#include "matmul/cannon.hpp"

#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

template <typename T, typename Session>
Block2DOutputT<T> cannon_body(Session& session, const CannonConfig& cfg) {
  RankCtx& ctx = session.ctx();
  const i64 g = cfg.g;
  CAMB_CHECK_MSG(g * g == session.nprocs(), "Cannon machine size must be g*g");
  const i64 i = session.rank() / g;
  const i64 j = session.rank() % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);

  // Owned blocks.
  std::vector<T> a_held = fill_chunk_indexed<T>(full_block(d1, i, d2, j));
  std::vector<T> b_held = fill_chunk_indexed<T>(full_block(d2, i, d3, j));

  // A moves along this rank's row fiber (indices there are column numbers),
  // B along its column fiber.  One tag block per fiber covers the skew plus
  // every shift round: 2g tags, far below the block width.
  const GridMap map(Grid3{g, g, 1});
  const coll::Comm my_row = session.comm(map.fiber(1, i, j, 0));
  const coll::Comm my_col = session.comm(map.fiber(0, i, j, 0));
  const int row_tags = g > 1 ? my_row.take_tag_block() : 0;
  const int col_tags = g > 1 ? my_col.take_tag_block() : 0;
  CAMB_CHECK_MSG(2 * g < kTagBlockWidth, "grid too large for one tag block");

  Block2DOutputT<T> out;
  out.row0 = d1.start(i);
  out.col0 = d3.start(j);
  out.block = Matrix<T>(d1.size(i), d3.size(j));

  const i64 t0 = session.resume_step();
  if (session.restored()) {
    // The snapshot at boundary t0 was taken after shift t0, so the held
    // blocks are exactly the operands of step t0.
    const SnapshotT<T>& snap = session.snapshot();
    CAMB_CHECK(snap.bufs.size() == 3);
    a_held = snap.bufs[0];
    b_held = snap.bufs[1];
    CAMB_CHECK(static_cast<i64>(snap.bufs[2].size()) == out.block.size());
    std::copy(snap.bufs[2].begin(), snap.bufs[2].end(), out.block.data());
  } else {
    // Initial skew: A_{ij} moves to (i, j - i); afterwards rank (i, j) holds
    // A_{i, (i + j) mod g}.  Likewise B_{ij} moves to (i - j, j).
    ctx.set_phase(kPhaseCannonSkewId);
    if (g > 1) {
      my_row.send(static_cast<int>((j - i % g + g) % g), row_tags,
                  Buffer::adopt(std::move(a_held)));
      a_held = std::move(my_row.recv(static_cast<int>((j + i) % g), row_tags))
                   .template take_as<T>();
      my_col.send(static_cast<int>((i - j % g + g) % g), col_tags,
                  Buffer::adopt(std::move(b_held)));
      b_held = std::move(my_col.recv(static_cast<int>((i + j) % g), col_tags))
                   .template take_as<T>();
    }
  }

  for (i64 t = t0; t < g; ++t) {
    // After the skew and t shifts, the held k-block index is (i + j + t).
    const i64 s = (i + j + t) % g;
    ctx.set_phase(kPhaseCannonGemmId);
    // The held blocks lend their storage to the operands and take it back
    // for the shift: no copy, no allocation.
    Matrix<T> a_mat(d1.size(i), d2.size(s), std::move(a_held));
    Matrix<T> b_mat(d2.size(s), d3.size(j), std::move(b_held));
    gemm_accumulate(a_mat, b_mat, out.block);
    a_held = std::move(a_mat).release();
    b_held = std::move(b_mat).release();

    if (t + 1 < g && g > 1) {
      ctx.set_phase(kPhaseCannonShiftId);
      const int off = static_cast<int>(t + 1);
      // Shift A left by one (to column j-1), B up by one (to row i-1).
      my_row.send(static_cast<int>((j - 1 + g) % g), row_tags + off,
                  Buffer::adopt(std::move(a_held)));
      a_held = std::move(
                   my_row.recv(static_cast<int>((j + 1) % g), row_tags + off))
                   .template take_as<T>();
      my_col.send(static_cast<int>((i - 1 + g) % g), col_tags + off,
                  Buffer::adopt(std::move(b_held)));
      b_held = std::move(
                   my_col.recv(static_cast<int>((i + 1) % g), col_tags + off))
                   .template take_as<T>();
    }

    session.boundary(t + 1, [&] {
      return snapshot_of<T>({a_held, b_held,
                             std::vector<T>(out.block.data(),
                                            out.block.data() +
                                                out.block.size())});
    });
  }
  return out;
}

template <typename T>
Block2DOutputT<T> cannon_rank(RankCtx& ctx, const CannonConfig& cfg) {
  ckpt::PlainSessionT<T> session(ctx);
  return cannon_body<T>(session, cfg);
}

#define CAMB_INSTANTIATE(T)                                       \
  template Block2DOutputT<T> cannon_body<T>(                      \
      ckpt::PlainSessionT<T>&, const CannonConfig&);              \
  template Block2DOutputT<T> cannon_body<T>(ckpt::SessionT<T>&,   \
                                            const CannonConfig&); \
  template Block2DOutputT<T> cannon_rank<T>(RankCtx&, const CannonConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 cannon_ckpt_steps(const CannonConfig& cfg) { return cfg.g; }

i64 cannon_ckpt_snapshot_words(const CannonConfig& cfg, int logical,
                               i64 step) {
  const i64 g = cfg.g;
  const i64 i = logical / g;
  const i64 j = logical % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  // At boundary `step` the held k-block index is (i + j + step) mod g after
  // a shift, except the last step, which does not shift.
  const i64 s = step < g ? (i + j + step) % g : (i + j + g - 1) % g;
  return snapshot_wire_words({d1.size(i) * d2.size(s),
                              d2.size(s) * d3.size(j),
                              d1.size(i) * d3.size(j)});
}

i64 cannon_predicted_recv_words(const CannonConfig& cfg, int rank) {
  const i64 g = cfg.g;
  const i64 i = rank / g;
  const i64 j = rank % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  if (g == 1) return 0;
  i64 words = 0;
  // Skew: receive A_{i,(i+j) mod g} from (i, (j+i) mod g) unless that is
  // self (i.e. i == 0 for A, j == 0 for B; self-moves are free).
  if (i % g != 0) words += d1.size(i) * d2.size((i + j) % g);
  if (j % g != 0) words += d2.size((i + j) % g) * d3.size(j);
  // Shifts t = 1..g-1: after shift t the held A block is A_{i,(i+j+t) mod g},
  // received from the right neighbour (never self for g > 1).
  for (i64 t = 1; t < g; ++t) {
    words += d1.size(i) * d2.size((i + j + t) % g);   // A from (i, j+1)
    words += d2.size((i + j + t) % g) * d3.size(j);   // B from (i+1, j)
  }
  return words;
}

}  // namespace camb::mm
