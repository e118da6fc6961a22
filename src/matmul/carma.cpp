#include "matmul/carma.hpp"

#include "collectives/comm.hpp"
#include "matmul/local_gemm.hpp"
#include "util/error.hpp"
#include "util/scalar.hpp"

namespace camb::mm {

namespace {

/// Demmel et al.'s rule: split the largest current dimension (ties resolved
/// M, then K, then N, deterministically).
char choose_split(i64 r, i64 k, i64 c) {
  if (r >= k && r >= c) return 'M';
  if (k >= c) return 'K';
  return 'N';
}

/// Replication exchange: the parent array (W words, row-contiguous chunks of
/// W / |comm| words per member) is needed in full by BOTH comm halves.
/// Child member i (of either half) ends with parent chunks 2i and 2i+1
/// concatenated = child chunk i of a W / (|comm|/2) distribution.
template <typename T>
std::vector<T> replicate_exchange(const coll::Comm& comm,
                                  const std::vector<T>& mine, int tag) {
  const int s = comm.size() / 2;
  const int pidx = comm.my_index();
  // Send my chunk to the member of each half that needs it.
  comm.send(pidx / 2, tag, Buffer::pack<T>(mine));
  comm.send(s + pidx / 2, tag, Buffer::pack<T>(mine));
  // Receive parent chunks 2i and 2i+1, i = my index within my half.
  const int i = pidx < s ? pidx : pidx - s;
  std::vector<T> lowpart = std::move(comm.recv(2 * i, tag)).take_as<T>();
  std::vector<T> highpart = std::move(comm.recv(2 * i + 1, tag)).take_as<T>();
  lowpart.insert(lowpart.end(), highpart.begin(), highpart.end());
  return lowpart;
}

/// Column-halving exchange: the parent array is (rows × cols) row-major,
/// row-distributed (rows_pm rows per member).  The left column half goes to
/// the lower comm half, the right to the upper; child member i receives the
/// matching halves of parent members 2i, 2i+1's rows, preserving row order.
template <typename T>
std::vector<T> split_columns_exchange(const coll::Comm& comm,
                                      const std::vector<T>& mine, i64 rows_pm,
                                      i64 cols, int tag) {
  CAMB_CHECK(cols % 2 == 0);
  CAMB_CHECK(static_cast<i64>(mine.size()) == rows_pm * cols);
  const int s = comm.size() / 2;
  const int pidx = comm.my_index();
  const i64 half = cols / 2;
  std::vector<T> left, right;
  left.reserve(static_cast<std::size_t>(rows_pm * half));
  right.reserve(static_cast<std::size_t>(rows_pm * half));
  for (i64 row = 0; row < rows_pm; ++row) {
    const auto base = mine.begin() + row * cols;
    left.insert(left.end(), base, base + half);
    right.insert(right.end(), base + half, base + cols);
  }
  comm.send(pidx / 2, tag, Buffer::adopt(std::move(left)));
  comm.send(s + pidx / 2, tag, Buffer::adopt(std::move(right)));
  const int i = pidx < s ? pidx : pidx - s;
  std::vector<T> lowpart = std::move(comm.recv(2 * i, tag)).take_as<T>();
  std::vector<T> highpart = std::move(comm.recv(2 * i + 1, tag)).take_as<T>();
  lowpart.insert(lowpart.end(), highpart.begin(), highpart.end());
  return lowpart;
}

/// One K-split combine frame remembered for the unwind: the level comm it
/// runs on (kept alive so the lease stays valid), the tag reserved for the
/// combine at split time, and the partner's index within that comm.
struct CombineFrame {
  coll::Comm comm;
  int tag;
  int partner_idx;
  bool lower;  ///< true if this rank keeps the first half of its holding
};

}  // namespace

std::vector<char> carma_split_sequence(const CarmaConfig& cfg) {
  std::vector<char> splits;
  i64 r = cfg.shape.n1, k = cfg.shape.n2, c = cfg.shape.n3;
  for (int level = 0; level < cfg.levels; ++level) {
    const char split = choose_split(r, k, c);
    splits.push_back(split);
    if (split == 'M') r /= 2;
    else if (split == 'K') k /= 2;
    else c /= 2;
  }
  return splits;
}

bool carma_supported(const Shape& shape, int levels) {
  if (levels < 0 || levels > 30) return false;
  i64 r = shape.n1, k = shape.n2, c = shape.n3;
  i64 g = i64{1} << levels;
  int k_splits = 0;
  for (int level = 0; level < levels; ++level) {
    // Row distributions of A (r rows) and B (k rows) over the group.
    if (r % g != 0 || k % g != 0) return false;
    const char split = choose_split(r, k, c);
    if (split == 'M') {
      if (r % 2 != 0) return false;
      r /= 2;
    } else if (split == 'K') {
      if (k % 2 != 0) return false;
      k /= 2;
      ++k_splits;
    } else {
      if (c % 2 != 0) return false;
      c /= 2;
    }
    g /= 2;
  }
  // Leaf C must halve once per K-combine on the unwind.
  const i64 leaf_c_words = r * c;
  return leaf_c_words % (i64{1} << k_splits) == 0;
}

template <typename T, typename Session>
CarmaRankOutputT<T> carma_body(Session& session, const CarmaConfig& cfg) {
  RankCtx& ctx = session.ctx();
  const i64 P = i64{1} << cfg.levels;
  CAMB_CHECK_MSG(P == session.nprocs(), "machine size must be 2^levels");
  CAMB_CHECK_MSG(carma_supported(cfg.shape, cfg.levels),
                 "shape does not satisfy CARMA's divisibility requirements");
  i64 r = cfg.shape.n1, k = cfg.shape.n2, c = cfg.shape.n3;
  i64 c_row0 = 0, c_col0 = 0;
  int g_lo = 0;
  int g_size = static_cast<int>(P);
  const int me = session.rank();
  const i64 t0 = session.resume_step();

  // Root distribution: contiguous row blocks of A and B — or the holdings
  // after level t0 when resuming.
  std::vector<T> a, b;
  if (session.restored()) {
    const SnapshotT<T>& snap = session.snapshot();
    CAMB_CHECK(snap.bufs.size() == 2);
    a = snap.bufs[0];
    b = snap.bufs[1];
  } else {
    a = fill_chunk_indexed<T>(
        BlockChunk{0, 0, r, k, me * (r / P) * k, (r / P) * k});
    b = fill_chunk_indexed<T>(
        BlockChunk{0, 0, k, c, me * (k / P) * c, (k / P) * c});
  }

  std::vector<CombineFrame> combines;
  for (int level = 0; level < cfg.levels; ++level) {
    const int s = g_size / 2;
    const int pidx = me - g_lo;
    const bool lower = pidx < s;
    const char split = choose_split(r, k, c);
    // Levels below the resume step replay only the split geometry and the
    // comm leases (pure local bookkeeping): the data is already in `a`/`b`,
    // but the unwind still needs every K-split's combine frame.
    const bool live = level >= t0;
    if (live) ctx.set_phase(kPhaseCarmaSplitId);
    // This level's comm: the current group.  Every rank of the machine is in
    // exactly one group per level and the split letters are dimension-driven
    // (identical across groups), so the lease sequences stay in lockstep.
    std::vector<int> members(static_cast<std::size_t>(g_size));
    for (int m = 0; m < g_size; ++m) {
      members[static_cast<std::size_t>(m)] = g_lo + m;
    }
    coll::Comm level_comm = session.comm(std::move(members), /*tag_blocks=*/2);
    const int tags = level_comm.take_tag_block();
    if (split == 'M') {
      // A and C halves align with the comm halves; replicate B.
      if (live) b = replicate_exchange(level_comm, b, tags);
      r /= 2;
      if (!lower) c_row0 += r;
    } else if (split == 'K') {
      if (live) a = split_columns_exchange(level_comm, a, r / g_size, k, tags);
      k /= 2;
      const int combine_tags = level_comm.take_tag_block();
      combines.push_back(CombineFrame{std::move(level_comm), combine_tags,
                                      lower ? pidx + s : pidx - s, lower});
    } else {  // 'N'
      if (live) {
        a = replicate_exchange(level_comm, a, tags);
        b = split_columns_exchange(level_comm, b, k / g_size, c, tags + 1);
      }
      c /= 2;
      if (!lower) c_col0 += c;
    }
    if (!lower) g_lo += s;
    g_size = s;
    if (live) {
      session.boundary(level + 1, [&] { return snapshot_of<T>({a, b}); });
    }
  }

  // Leaf: this rank owns the entire (r × k) x (k × c) subproblem.
  ctx.set_phase(kPhaseCarmaGemmId);
  CarmaRankOutputT<T> out;
  out.holding = BlockChunk{c_row0, c_col0, r, c, 0, r * c};
  out.data = gemm(Matrix<T>(r, k, std::move(a)), Matrix<T>(k, c, std::move(b)))
                 .release();

  // Unwind: sum partial C's across the halves of every K-split, deepest
  // frame first, each pair splitting the (structurally identical) holding.
  ctx.set_phase(kPhaseCarmaCombineId);
  for (auto frame = combines.rbegin(); frame != combines.rend(); ++frame) {
    const i64 half = static_cast<i64>(out.data.size()) / 2;
    CAMB_CHECK(2 * half == static_cast<i64>(out.data.size()));
    std::vector<T> outgoing(
        out.data.begin() + (frame->lower ? half : 0),
        out.data.begin() + (frame->lower ? 2 * half : half));
    frame->comm.send(frame->partner_idx, frame->tag,
                     Buffer::adopt(std::move(outgoing)));
    const std::vector<T> incoming =
        std::move(frame->comm.recv(frame->partner_idx, frame->tag))
            .template take_as<T>();
    CAMB_CHECK(static_cast<i64>(incoming.size()) == half);
    const i64 keep_off = frame->lower ? 0 : half;
    for (i64 j = 0; j < half; ++j) {
      out.data[static_cast<std::size_t>(keep_off + j)] +=
          incoming[static_cast<std::size_t>(j)];
    }
    // The lower member's kept range starts where it started; adjust size
    // only.
    if (frame->lower) {
      out.data.resize(static_cast<std::size_t>(half));
    } else {
      out.data.erase(out.data.begin(), out.data.begin() + half);
      out.holding.flat_start += half;
    }
    out.holding.flat_size = half;
  }
  return out;
}

template <typename T>
CarmaRankOutputT<T> carma_rank(RankCtx& ctx, const CarmaConfig& cfg) {
  ckpt::PlainSessionT<T> session(ctx);
  return carma_body<T>(session, cfg);
}

#define CAMB_INSTANTIATE(T)                                               \
  template CarmaRankOutputT<T> carma_body<T>(ckpt::PlainSessionT<T>&,     \
                                             const CarmaConfig&);         \
  template CarmaRankOutputT<T> carma_body<T>(ckpt::SessionT<T>&,          \
                                             const CarmaConfig&);         \
  template CarmaRankOutputT<T> carma_rank<T>(RankCtx&, const CarmaConfig&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

i64 carma_ckpt_steps(const CarmaConfig& cfg) { return cfg.levels; }

i64 carma_ckpt_snapshot_words(const CarmaConfig& cfg, int logical, i64 step) {
  (void)logical;  // CARMA's per-rank holdings are rank-independent in size
  i64 r = cfg.shape.n1, k = cfg.shape.n2, c = cfg.shape.n3;
  i64 g = i64{1} << cfg.levels;
  for (i64 level = 0; level < step; ++level) {
    const char split = choose_split(r, k, c);
    if (split == 'M') r /= 2;
    else if (split == 'K') k /= 2;
    else c /= 2;
    g /= 2;
  }
  return snapshot_wire_words({(r / g) * k, (k / g) * c});
}

std::vector<i64> carma_predicted_recv_words(const CarmaConfig& cfg) {
  const i64 P = i64{1} << cfg.levels;
  CAMB_CHECK_MSG(carma_supported(cfg.shape, cfg.levels),
                 "shape does not satisfy CARMA's divisibility requirements");
  std::vector<i64> words(static_cast<std::size_t>(P), 0);
  for (i64 rank = 0; rank < P; ++rank) {
    i64 r = cfg.shape.n1, k = cfg.shape.n2, c = cfg.shape.n3;
    int g_lo = 0;
    int g_size = static_cast<int>(P);
    const int me = static_cast<int>(rank);
    int k_splits = 0;
    i64 total = 0;
    for (int level = 0; level < cfg.levels; ++level) {
      const int s = g_size / 2;
      const int pidx = me - g_lo;
      const bool lower = pidx < s;
      const int i = lower ? pidx : pidx - s;
      const char split = choose_split(r, k, c);
      auto add_pairwise_recv = [&](i64 words_per_message) {
        if (g_lo + 2 * i != me) total += words_per_message;
        if (g_lo + 2 * i + 1 != me) total += words_per_message;
      };
      if (split == 'M') {
        add_pairwise_recv((k / g_size) * c);  // B replication chunks
        r /= 2;
      } else if (split == 'K') {
        add_pairwise_recv((r / g_size) * (k / 2));  // A column halves
        k /= 2;
        ++k_splits;
      } else {
        add_pairwise_recv((r / g_size) * k);        // A replication chunks
        add_pairwise_recv((k / g_size) * (c / 2));  // B column halves
        c /= 2;
      }
      if (!lower) g_lo += s;
      g_size = s;
    }
    // Combines: holding halves each time, starting from the leaf C size.
    i64 holding = r * c;
    for (int j = 0; j < k_splits; ++j) {
      holding /= 2;
      total += holding;  // receive the partner's half (never self)
    }
    words[static_cast<std::size_t>(rank)] = total;
  }
  return words;
}

}  // namespace camb::mm
