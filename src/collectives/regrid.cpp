#include "collectives/regrid.hpp"

#include <algorithm>
#include <limits>

#include "util/scalar.hpp"

namespace camb::coll {

void check_panel_set(const PanelSet& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    const PanelSpan& s = set[i];
    CAMB_CHECK_MSG(s.matrix == 0 || s.matrix == 1,
                   "panel span matrix must be 0 (A) or 1 (B)");
    CAMB_CHECK_MSG(s.len > 0, "panel spans must have positive length");
    CAMB_CHECK_MSG(s.start >= 0, "panel spans must start at a valid cell");
    if (i > 0) {
      const PanelSpan& prev = set[i - 1];
      const bool ordered = prev.matrix < s.matrix ||
                           (prev.matrix == s.matrix && prev.end() <= s.start);
      CAMB_CHECK_MSG(ordered,
                     "panel sets must be sorted by (matrix, start) and "
                     "pairwise disjoint");
    }
  }
}

i64 panels_elems(const PanelSet& set) {
  i64 total = 0;
  for (const PanelSpan& s : set) total += s.len;
  return total;
}

PanelSet intersect_panels(const PanelSet& a, const PanelSet& b) {
  PanelSet out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const PanelSpan& x = a[i];
    const PanelSpan& y = b[j];
    if (x.matrix != y.matrix) {
      (x.matrix < y.matrix) ? ++i : ++j;
      continue;
    }
    const i64 lo = std::max(x.start, y.start);
    const i64 hi = std::min(x.end(), y.end());
    if (lo < hi) out.push_back({x.matrix, lo, hi - lo});
    // Advance whichever span ends first; ties advance both.
    if (x.end() < y.end()) {
      ++i;
    } else if (y.end() < x.end()) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return out;
}

i64 regrid_recv_elems_exact(const RegridPlan& plan, int machine_rank) {
  const std::size_t me = static_cast<std::size_t>(machine_rank);
  CAMB_CHECK(me < plan.new_panels.size());
  const PanelSet& mine = plan.new_panels[me];
  i64 total = 0;
  for (std::size_t o = 0; o < plan.old_panels.size(); ++o) {
    if (static_cast<int>(o) == machine_rank || !plan.alive[o]) continue;
    total += panels_elems(intersect_panels(plan.old_panels[o], mine));
  }
  return total;
}

double regrid_recv_words_exact(const RegridPlan& plan, int machine_rank,
                               double width_words) {
  return static_cast<double>(regrid_recv_elems_exact(plan, machine_rank)) *
         width_words;
}

namespace {

/// Offset of `span` within the canonical per-matrix storage of `set`.
/// `span` must lie inside exactly one span of `set` (which intersection
/// output always does).
i64 locate(const PanelSet& set, const PanelSpan& span) {
  i64 off = 0;
  for (const PanelSpan& s : set) {
    if (s.matrix != span.matrix) continue;
    if (span.start >= s.start && span.end() <= s.end()) {
      return off + (span.start - s.start);
    }
    off += s.len;
  }
  throw Error("regrid: span not contained in the owner's panel set");
}

template <typename T>
std::vector<T> gather_values(const PanelSet& owner, const std::vector<T>& a,
                             const std::vector<T>& b, const PanelSet& want) {
  std::vector<T> out;
  out.reserve(static_cast<std::size_t>(panels_elems(want)));
  for (const PanelSpan& w : want) {
    const std::vector<T>& store = (w.matrix == 0) ? a : b;
    const i64 off = locate(owner, w);
    CAMB_CHECK(off + w.len <= static_cast<i64>(store.size()));
    out.insert(out.end(), store.begin() + off, store.begin() + off + w.len);
  }
  return out;
}

template <typename T>
void scatter_values(const PanelSet& target, std::vector<T>& a,
                    std::vector<T>& b, const PanelSet& got, const T* values) {
  for (const PanelSpan& g : got) {
    std::vector<T>& store = (g.matrix == 0) ? a : b;
    const i64 off = locate(target, g);
    CAMB_CHECK(off + g.len <= static_cast<i64>(store.size()));
    std::copy(values, values + g.len, store.begin() + off);
    values += g.len;
  }
}

template <typename T>
void regenerate_values(const PanelSet& target, std::vector<T>& a,
                       std::vector<T>& b, const PanelSet& spans,
                       const RegridFill<T>& fill) {
  for (const PanelSpan& s : spans) {
    std::vector<T>& store = (s.matrix == 0) ? a : b;
    const i64 off = locate(target, s);
    CAMB_CHECK(off + s.len <= static_cast<i64>(store.size()));
    fill(s.matrix, s.start, s.len, store.data() + off);
  }
}

}  // namespace

template <typename T>
RegridResult<T> regrid(const Comm& comm, const RegridPlan& plan,
                       const std::vector<T>& my_old_a,
                       const std::vector<T>& my_old_b,
                       const RegridFill<T>& fill) {
  CAMB_CHECK_MSG(comm.member(), "only members may call regrid");
  RankCtx& ctx = comm.ctx();
  const int nprocs = ctx.nprocs();
  const int me = ctx.rank();
  CAMB_CHECK_MSG(plan.old_panels.size() == static_cast<std::size_t>(nprocs) &&
                     plan.new_panels.size() == static_cast<std::size_t>(nprocs) &&
                     plan.alive.size() == static_cast<std::size_t>(nprocs),
                 "regrid plan vectors must be machine-sized");
  for (int r = 0; r < nprocs; ++r) {
    check_panel_set(plan.old_panels[static_cast<std::size_t>(r)]);
    check_panel_set(plan.new_panels[static_cast<std::size_t>(r)]);
  }
  CAMB_CHECK_MSG(plan.alive[static_cast<std::size_t>(me)],
                 "a regrid caller must be alive in its own plan");
  const PanelSet& my_old = plan.old_panels[static_cast<std::size_t>(me)];
  const PanelSet& my_new = plan.new_panels[static_cast<std::size_t>(me)];
  CAMB_CHECK(panels_elems(my_old) == static_cast<i64>(my_old_a.size()) +
                                         static_cast<i64>(my_old_b.size()));

  ctx.set_phase(kPhaseElasticRegridId);
  // One tag block, one tag: per-pair messages are distinguished by source.
  const int tag = comm.take_tag_block();

  // Sends first — buffered, so the exchange cannot deadlock.  Every alive
  // old owner ships each new owner its overlap, values concatenated in the
  // canonical order both sides derive from the shared plan.
  for (int d = 0; d < nprocs; ++d) {
    if (d == me) continue;
    const PanelSet& dst_new = plan.new_panels[static_cast<std::size_t>(d)];
    if (dst_new.empty()) continue;
    const PanelSet overlap = intersect_panels(my_old, dst_new);
    if (overlap.empty()) continue;
    comm.send(comm.index_of(d), tag,
              Buffer::adopt(gather_values(my_old, my_old_a, my_old_b,
                                          overlap)));
  }

  // Allocate the new holding (canonical per-matrix storage).
  RegridResult<T> result;
  i64 new_a_elems = 0, new_b_elems = 0;
  for (const PanelSpan& s : my_new) {
    (s.matrix == 0 ? new_a_elems : new_b_elems) += s.len;
  }
  result.a.resize(static_cast<std::size_t>(new_a_elems));
  result.b.resize(static_cast<std::size_t>(new_b_elems));

  // Receive (or regenerate) each old owner's piece, in rank order.  The old
  // placement partitions each matrix, so the pieces tile my new panels
  // exactly — checked below.
  i64 covered = 0;
  for (int o = 0; o < nprocs; ++o) {
    const PanelSet overlap =
        intersect_panels(plan.old_panels[static_cast<std::size_t>(o)], my_new);
    if (overlap.empty()) continue;
    const i64 elems = panels_elems(overlap);
    covered += elems;
    if (o == me) {
      // Self-overlap: a free local copy, never on the wire.
      scatter_values(my_new, result.a, result.b, overlap,
                     gather_values(my_old, my_old_a, my_old_b, overlap).data());
      result.local_elems += elems;
      continue;
    }
    if (!plan.alive[static_cast<std::size_t>(o)]) {
      regenerate_values(my_new, result.a, result.b, overlap, fill);
      result.regenerated_elems += elems;
      continue;
    }
    auto payload = ctx.recv_timed(o, tag,
                                  std::numeric_limits<double>::infinity());
    if (!payload.has_value()) {
      // The source died (or abandoned) mid-regrid before its send reached
      // us: regenerate the piece from the position-pure fill — the same
      // bits the wire would have carried.
      regenerate_values(my_new, result.a, result.b, overlap, fill);
      result.regenerated_elems += elems;
      continue;
    }
    CAMB_CHECK(payload->elems<T>() == elems);
    const std::vector<T> values = std::move(*payload).template take_as<T>();
    scatter_values(my_new, result.a, result.b, overlap, values.data());
    result.migrated_elems += elems;
  }
  CAMB_CHECK_MSG(covered == panels_elems(my_new),
                 "regrid: the old placement must partition each matrix "
                 "(every new cell needs exactly one old owner)");
  return result;
}

#define CAMB_INSTANTIATE(T)                                              \
  template RegridResult<T> regrid<T>(const Comm&, const RegridPlan&,     \
                                     const std::vector<T>&,              \
                                     const std::vector<T>&,              \
                                     const RegridFill<T>&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

}  // namespace camb::coll
