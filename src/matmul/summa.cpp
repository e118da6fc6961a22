#include "matmul/summa.hpp"

#include "collectives/bcast.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

/// The g-stage broadcast loop resumes after the last committed stage (the C
/// accumulator is the whole snapshot) and commits C after every stage.
template <typename T, typename Session>
Block2DOutputT<T> summa_body(Session& session, const SummaConfig& cfg) {
  RankCtx& ctx = session.ctx();
  const i64 g = cfg.g;
  CAMB_CHECK_MSG(g * g == session.nprocs(), "SUMMA machine size must be g*g");
  const i64 i = session.rank() / g;
  const i64 j = session.rank() % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);

  // Owned blocks, through the session's input hook.
  const std::vector<T> a_own = session.input(0, [&] {
    return fill_chunk_pattern<T>(full_block(d1, i, d2, j), cfg.integer_inputs);
  });
  const std::vector<T> b_own = session.input(1, [&] {
    return fill_chunk_pattern<T>(full_block(d2, i, d3, j), cfg.integer_inputs);
  });

  Block2DOutputT<T> out;
  out.row0 = d1.start(i);
  out.col0 = d3.start(j);
  out.block = Matrix<T>(d1.size(i), d3.size(j));
  Matrix<T>& c_block = out.block;

  // Fiber comms by logical rank: the row of (i, .) and the column of (., j).
  const GridMap map(Grid3{g, g, 1});
  const coll::Comm my_row = session.comm(map.fiber(1, i, j, 0));
  const coll::Comm my_col = session.comm(map.fiber(0, i, j, 0));
  if (session.restored()) {
    const SnapshotT<T>& snap = session.snapshot();
    CAMB_CHECK(snap.bufs.size() == 1 &&
               static_cast<i64>(snap.bufs[0].size()) == c_block.size());
    std::copy(snap.bufs[0].begin(), snap.bufs[0].end(), c_block.data());
  }
  for (i64 t = session.resume_step(); t < g; ++t) {
    // A block-column t travels along each row; B block-row t along columns.
    ctx.set_phase(kPhaseSummaBcastAId);
    std::vector<T> a_panel = (t == j) ? a_own : std::vector<T>{};
    const i64 a_elems = d1.size(i) * d2.size(t);
    coll::bcast(my_row, static_cast<int>(t), a_panel, a_elems, cfg.bcast,
                cfg.bcast_segments);

    ctx.set_phase(kPhaseSummaBcastBId);
    std::vector<T> b_panel = (t == i) ? b_own : std::vector<T>{};
    const i64 b_elems = d2.size(t) * d3.size(j);
    coll::bcast(my_col, static_cast<int>(t), b_panel, b_elems, cfg.bcast,
                cfg.bcast_segments);

    ctx.set_phase(kPhaseSummaGemmId);
    gemm_accumulate(Matrix<T>(d1.size(i), d2.size(t), std::move(a_panel)),
                    Matrix<T>(d2.size(t), d3.size(j), std::move(b_panel)),
                    c_block);

    session.boundary(t + 1, [&] {
      return snapshot_of<T>(
          {std::vector<T>(c_block.data(), c_block.data() + c_block.size())});
    });
  }
  return out;
}

template <typename T>
Block2DOutputT<T> summa_rank(RankCtx& ctx, const SummaConfig& cfg) {
  ckpt::PlainSessionT<T> session(ctx);
  return summa_body<T>(session, cfg);
}

#define CAMB_INSTANTIATE(T)                                                 \
  template Block2DOutputT<T> summa_body<T>(ckpt::PlainSessionT<T>&,         \
                                           const SummaConfig&);             \
  template Block2DOutputT<T> summa_body<T>(ckpt::SessionT<T>&,              \
                                           const SummaConfig&);             \
  template Block2DOutputT<T> summa_body<T>(ckpt::ElasticSessionT<T>&,       \
                                           const SummaConfig&);             \
  template Block2DOutputT<T> summa_rank<T>(RankCtx&, const SummaConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 summa_ckpt_steps(const SummaConfig& cfg) { return cfg.g; }

i64 summa_ckpt_snapshot_words(const SummaConfig& cfg, int logical, i64 step) {
  (void)step;  // the C block is the whole snapshot at every stage
  const i64 g = cfg.g;
  const BlockDist1D d1(cfg.shape.n1, g), d3(cfg.shape.n3, g);
  return snapshot_wire_words({d1.size(logical / g) * d3.size(logical % g)});
}

i64 summa_predicted_recv_words(const SummaConfig& cfg, int rank) {
  const i64 g = cfg.g;
  const i64 i = rank / g;
  const i64 j = rank % g;
  const BlockDist1D d1(cfg.shape.n1, g), d2(cfg.shape.n2, g),
      d3(cfg.shape.n3, g);
  i64 words = 0;
  for (i64 t = 0; t < g; ++t) {
    if (t != j && g > 1) words += d1.size(i) * d2.size(t);  // A panel
    if (t != i && g > 1) words += d2.size(t) * d3.size(j);  // B panel
  }
  return words;
}

}  // namespace camb::mm
