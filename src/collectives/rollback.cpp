#include "collectives/rollback.hpp"

#include <array>
#include <cstdint>
#include <limits>
#include <numeric>

namespace camb::ckpt {

namespace {

bool test_bit(const std::vector<std::uint32_t>& mask, int i) {
  return (mask[static_cast<std::size_t>(i / 32)] >>
          static_cast<unsigned>(i % 32)) &
         1u;
}

void set_bit(std::vector<std::uint32_t>& mask, int i) {
  mask[static_cast<std::size_t>(i / 32)] |= 1u << static_cast<unsigned>(i % 32);
}

}  // namespace

template <typename T>
RollbackStateT<T>::RollbackStateT(RankCtx& ctx, const ResilientConfig& cfg)
    : ctx_(ctx), cfg_(cfg), T_(cfg.nprocs + cfg.spares) {
  CAMB_CHECK_MSG(cfg_.nprocs >= 1, "need at least one logical rank");
  CAMB_CHECK_MSG(cfg_.spares >= 0, "spares must be non-negative");
  CAMB_CHECK_MSG(cfg_.interval >= 1, "checkpoint interval must be >= 1");
  CAMB_CHECK_MSG(cfg_.buddy_stride >= 1, "buddy stride must be >= 1");
  CAMB_CHECK_MSG(ctx.nprocs() == T_,
                 "machine size must be logical ranks + spares");
  known_dead_.assign(static_cast<std::size_t>(T_), 0);
  hosts_.resize(static_cast<std::size_t>(cfg_.nprocs));
  std::iota(hosts_.begin(), hosts_.end(), 0);
}

template <typename T>
int RollbackStateT<T>::hosted_logical() const {
  for (int logical = 0; logical < cfg_.nprocs; ++logical) {
    if (hosts_[static_cast<std::size_t>(logical)] == ctx_.rank()) {
      return logical;
    }
  }
  return -1;
}

template <typename T>
void RollbackStateT<T>::begin_exec() {
  CAMB_CHECK_MSG(round_ < kMaxRounds, "rollback rounds exhausted tag space");
  ctx_.tags().set_recovery_cursor(exec_band(round_));
}

template <typename T>
void RollbackStateT<T>::abort_exec() { ctx_.abandon_below(sync_band(round_)); }

template <typename T>
void RollbackStateT<T>::note_failure(const PeerFailedError& err) {
  if (err.peer_crashed() && err.failed_rank() >= 0 && err.failed_rank() < T_) {
    known_dead_[static_cast<std::size_t>(err.failed_rank())] = 1;
  }
}

template <typename T>
void RollbackStateT<T>::abort_sync() {
  ctx_.abandon_below(sync_band(round_ + 1));
  ++round_;
}

template <typename T>
std::vector<int> RollbackStateT<T>::compute_hosts(
    const std::vector<char>& failed) const {
  std::vector<int> hosts(static_cast<std::size_t>(cfg_.nprocs));
  int spare = cfg_.nprocs;
  for (int logical = 0; logical < cfg_.nprocs; ++logical) {
    if (!failed[static_cast<std::size_t>(logical)]) {
      hosts[static_cast<std::size_t>(logical)] = logical;
      continue;
    }
    while (spare < T_ && failed[static_cast<std::size_t>(spare)]) ++spare;
    CAMB_CHECK_MSG(spare < T_, "spare ranks exhausted");
    hosts[static_cast<std::size_t>(logical)] = spare++;
  }
  return hosts;
}

template <typename T>
bool RollbackStateT<T>::round_sync(bool exec_success) {
  CAMB_CHECK_MSG(round_ < kMaxRounds, "rollback rounds exhausted tag space");
  const int P = cfg_.nprocs;
  const int me = ctx_.rank();
  ctx_.set_phase(kPhaseCkptShrinkId);
  ctx_.tags().set_recovery_cursor(sync_band(round_));

  // Flood comm over the full physical machine (membership is never in
  // dispute) plus one block reserved for restreams, leased by every rank in
  // the same order so the bases agree.
  std::vector<int> everyone(static_cast<std::size_t>(T_));
  std::iota(everyone.begin(), everyone.end(), 0);
  const coll::Comm flood = coll::Comm::recovery(ctx_, everyone, 1);
  const int flood_base = flood.take_tag_block();
  const int restream_base = ctx_.tags().lease_recovery(1).base;

  const int M = (T_ + 31) / 32;
  const i64 view_words = ckpt_flood_view_words(T_);
  // My crash-mask contribution is frozen now: deaths observed *during* the
  // flood go to known_dead_ (next round's contribution) but not into the
  // relayed union — that is what makes the union a relayed value set, and
  // therefore agreed by the classic f+1-round flooding argument.
  std::vector<std::uint32_t> crash_union(static_cast<std::size_t>(M), 0);
  std::vector<std::uint32_t> known(static_cast<std::size_t>(M), 0);
  std::vector<std::array<i64, 4>> payload(static_cast<std::size_t>(T_),
                                          {0, 0, 0, 0});
  for (int r = 0; r < T_; ++r) {
    if (known_dead_[static_cast<std::size_t>(r)]) set_bit(crash_union, r);
  }
  set_bit(known, me);
  const int my_logical = hosted_logical();
  payload[static_cast<std::size_t>(me)] = {
      exec_success && my_logical >= 0 ? static_cast<i64>(my_logical) + 1 : 0,
      store_.own_committed(), store_.ward_lo(), store_.ward_hi()};

  for (int sub = 0; sub <= cfg_.spares; ++sub) {
    // Snapshot who I believe alive: one sub-round's send and receive sets
    // must match even though receiving may add new suspicions.
    std::vector<char> alive(static_cast<std::size_t>(T_));
    for (int j = 0; j < T_; ++j) {
      alive[static_cast<std::size_t>(j)] =
          !known_dead_[static_cast<std::size_t>(j)];
    }
    std::vector<double> view(static_cast<std::size_t>(view_words));
    for (int w = 0; w < M; ++w) {
      view[static_cast<std::size_t>(w)] =
          static_cast<double>(crash_union[static_cast<std::size_t>(w)]);
      view[static_cast<std::size_t>(M + w)] =
          static_cast<double>(known[static_cast<std::size_t>(w)]);
    }
    for (int r = 0; r < T_; ++r) {
      for (int v = 0; v < 4; ++v) {
        view[static_cast<std::size_t>(2 * M + 4 * r + v)] = static_cast<double>(
            payload[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)]);
      }
    }
    for (int j = 0; j < T_; ++j) {
      if (j == me || !alive[static_cast<std::size_t>(j)]) continue;
      flood.send(j, flood_base + sub, Buffer::copy_of(view));
    }
    for (int j = 0; j < T_; ++j) {
      if (j == me || !alive[static_cast<std::size_t>(j)]) continue;
      auto peer = ctx_.recv_timed(j, flood_base + sub,
                                  std::numeric_limits<double>::infinity());
      if (!peer) {
        // Perfect detection: nullopt on a recovery tag means j is dead.
        known_dead_[static_cast<std::size_t>(j)] = 1;
        continue;
      }
      CAMB_CHECK(static_cast<i64>(peer->size()) == view_words);
      for (int w = 0; w < M; ++w) {
        crash_union[static_cast<std::size_t>(w)] |=
            static_cast<std::uint32_t>((*peer)[static_cast<std::size_t>(w)]);
      }
      for (int r = 0; r < T_; ++r) {
        const auto incoming_known = static_cast<std::uint32_t>(
            (*peer)[static_cast<std::size_t>(M + r / 32)]);
        if (!((incoming_known >> static_cast<unsigned>(r % 32)) & 1u) ||
            test_bit(known, r)) {
          continue;
        }
        set_bit(known, r);
        for (int v = 0; v < 4; ++v) {
          payload[static_cast<std::size_t>(r)][static_cast<std::size_t>(v)] =
              static_cast<i64>(
                  (*peer)[static_cast<std::size_t>(2 * M + 4 * r + v)]);
        }
      }
    }
  }

  // Everything below is a pure function of the agreed flood result, so all
  // completing ranks take identical decisions.
  std::vector<char> failed(static_cast<std::size_t>(T_), 0);
  for (int r = 0; r < T_; ++r) {
    if (test_bit(crash_union, r)) {
      failed[static_cast<std::size_t>(r)] = 1;
      known_dead_[static_cast<std::size_t>(r)] = 1;
    }
  }

  std::vector<char> claimed(static_cast<std::size_t>(P), 0);
  int claims = 0;
  for (int r = 0; r < T_; ++r) {
    const i64 vote = payload[static_cast<std::size_t>(r)][0];
    if (!test_bit(known, r) || vote < 1) continue;
    CAMB_CHECK(vote <= P);
    if (!claimed[static_cast<std::size_t>(vote - 1)]) {
      claimed[static_cast<std::size_t>(vote - 1)] = 1;
      ++claims;
    }
  }
  const bool done = claims == P;

  RoundRecord record;
  record.round = round_;
  record.done = done;
  record.claims = claims;
  for (int r = 0; r < T_; ++r) {
    if (failed[static_cast<std::size_t>(r)]) record.failed.push_back(r);
  }
  if (done) {
    log_.push_back(std::move(record));
    ++round_;
    return true;
  }

  const std::vector<int> prev_hosts = hosts_;
  hosts_ = compute_hosts(failed);
  const int old_logical = my_logical;
  const int new_logical = hosted_logical();
  if (new_logical != old_logical) {
    // Identity change (spare drafted, or re-shuffled onto another logical):
    // the stored epochs describe someone else's state.
    store_.reset();
  }

  // Agreed rollback epoch: the newest epoch every established host has
  // committed, forced to 0 unless every fresh recruit's buddy host can
  // restream exactly that epoch from its ward copies.
  i64 epoch = std::numeric_limits<i64>::max();
  for (int logical = 0; logical < P; ++logical) {
    const int host = hosts_[static_cast<std::size_t>(logical)];
    if (host != prev_hosts[static_cast<std::size_t>(logical)]) continue;
    const i64 committed =
        test_bit(known, host) ? payload[static_cast<std::size_t>(host)][1] : 0;
    epoch = std::min(epoch, committed);
  }
  if (epoch == std::numeric_limits<i64>::max()) epoch = 0;
  std::vector<int> fresh;
  for (int logical = 0; logical < P; ++logical) {
    if (hosts_[static_cast<std::size_t>(logical)] !=
        prev_hosts[static_cast<std::size_t>(logical)]) {
      fresh.push_back(logical);
    }
  }
  for (int logical : fresh) {
    if (epoch < 1) break;
    const int buddy = ckpt_buddy(logical, P, cfg_.buddy_stride);
    const int holder = hosts_[static_cast<std::size_t>(buddy)];
    const bool holder_established =
        holder == prev_hosts[static_cast<std::size_t>(buddy)];
    const bool holder_has_epoch =
        test_bit(known, holder) &&
        payload[static_cast<std::size_t>(holder)][2] >= 1 &&
        payload[static_cast<std::size_t>(holder)][2] <= epoch &&
        payload[static_cast<std::size_t>(holder)][3] >= epoch;
    if (!holder_established || !holder_has_epoch) epoch = 0;
  }
  epoch_ = epoch;
  record.epoch = epoch;
  record.fresh = fresh;
  log_.push_back(std::move(record));

  // Restream: each fresh recruit receives its logical's epoch-E snapshot
  // from the buddy's host.  Blocking receives here may throw — the caller
  // aborts the sync and rejoins one round later.
  if (epoch >= 1) {
    for (int logical : fresh) {
      const int holder =
          hosts_[static_cast<std::size_t>(ckpt_buddy(logical, P,
                                                     cfg_.buddy_stride))];
      const int recruit = hosts_[static_cast<std::size_t>(logical)];
      const int tag = restream_base + logical;
      if (me == holder) {
        const SnapshotT<T>* snap = store_.ward(epoch);
        CAMB_CHECK_MSG(snap != nullptr, "agreed ward epoch missing");
        ctx_.set_phase(kPhaseCkptRollbackId);
        ctx_.send(recruit, tag, Buffer::adopt(snapshot_to_wire(*snap)));
        ctx_.set_phase(kPhaseCkptShrinkId);
      }
      if (me == recruit) {
        ctx_.set_phase(kPhaseCkptRollbackId);
        SnapshotT<T> snap = snapshot_from_wire(
            std::move(ctx_.recv(holder, tag)).template take_as<T>());
        ctx_.set_phase(kPhaseCkptShrinkId);
        CAMB_CHECK(snap.epoch == epoch);
        store_.put_own(std::move(snap));
      }
    }
  }
  ++round_;
  return false;
}

template <typename T>
SessionT<T>::SessionT(RollbackStateT<T>& rb)
    : rb_(rb),
      logical_(rb.hosted_logical()),
      commit_base_(rb.ctx().tags().lease_recovery(1).base) {
  CAMB_CHECK_MSG(logical_ >= 0, "idle spares do not execute");
}

template <typename T>
const SnapshotT<T>& SessionT<T>::snapshot() const {
  const SnapshotT<T>* snap = rb_.store().own(rb_.resume_epoch());
  CAMB_CHECK_MSG(snap != nullptr, "agreed resume epoch missing from store");
  return *snap;
}

template <typename T>
coll::Comm SessionT<T>::comm(const std::vector<int>& logical_members,
                             int tag_blocks) const {
  std::vector<int> physical;
  physical.reserve(logical_members.size());
  for (int logical : logical_members) {
    CAMB_CHECK(logical >= 0 && logical < this->nprocs());
    physical.push_back(rb_.hosts()[static_cast<std::size_t>(logical)]);
  }
  return coll::Comm::recovery(this->ctx(), std::move(physical), tag_blocks);
}

template <typename T>
void SessionT<T>::boundary(i64 step,
                           const std::function<SnapshotT<T>()>& make) {
  const i64 interval = rb_.config().interval;
  CAMB_CHECK(step >= 1);
  if (step % interval != 0) return;
  const i64 epoch = step / interval;
  if (epoch <= rb_.resume_epoch()) return;  // restored, not re-committed
  CAMB_CHECK_MSG(epoch < kTagBlockWidth, "too many epochs for one tag block");
  const int P = this->nprocs();
  const int stride = rb_.config().buddy_stride;
  const int buddy_host =
      rb_.hosts()[static_cast<std::size_t>(ckpt_buddy(logical_, P, stride))];
  const int ward_host =
      rb_.hosts()[static_cast<std::size_t>(ckpt_ward(logical_, P, stride))];
  SnapshotT<T> snap = make();
  snap.epoch = epoch;
  this->ctx().set_phase(kPhaseCheckpointId);
  // Pairwise ring: buffered send to the buddy's host first, then the
  // blocking receive of the ward copy — deadlock-free by construction.
  const int tag = commit_base_ + static_cast<int>(epoch);
  this->ctx().send(buddy_host, tag, Buffer::adopt(snapshot_to_wire(snap)));
  SnapshotT<T> ward = snapshot_from_wire(
      std::move(this->ctx().recv(ward_host, tag)).template take_as<T>());
  CAMB_CHECK(ward.epoch == epoch);
  rb_.store().put_own(std::move(snap));
  rb_.store().put_ward(std::move(ward));
}

#define CAMB_INSTANTIATE(T)          \
  template class RollbackStateT<T>;  \
  template class SessionT<T>;
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

}  // namespace camb::ckpt
