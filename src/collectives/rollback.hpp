// rollback.hpp — coordinated checkpoint/rollback recovery for the matmul
// algorithms.
//
// The machine runs P logical ranks on P + S physical ranks (S spares).  The
// run proceeds in *rounds*; each round is one attempted execution of the
// algorithm followed by one synchronization.  The recovery tag region is
// carved into per-round bands so aborted rounds can be abandoned wholesale:
//
//   exec band of round k:  [exec_band(k), sync_band(k))   — algorithm
//       traffic and buddy checkpoint commits (phase "checkpoint");
//   sync band of round k:  [sync_band(k), exec_band(k+1)) — the agreement
//       flood (phase "ckpt_shrink") and snapshot restreams to fresh
//       recruits (phase "ckpt_rollback").
//
// All execution runs on recovery-region tags: ranks that abort at different
// points lease different numbers of blocks, and resetting every cursor to
// the agreed band base (TagAllocator::set_recovery_cursor) is what keeps
// the SPMD lease sequences aligned across re-executions.
//
// The synchronization is one (S+1)-sub-round view flood over the *full*
// physical machine, modeled on coll::shrink but carrying values, not just
// suspicion masks:
//
//   view = [crash mask: M words][known mask: M words][payload: T x 4]
//   payload(r) = [vote, own_committed, ward_lo, ward_hi]
//
// where T = P + S, M = ceil(T / 32), vote = hosted logical + 1 if rank r's
// execution completed this round (its output is stored), else 0.  The
// crash-mask contribution of each rank is frozen at flood start, and
// payloads originate from single sources, so both are *relayed values*: the
// classic f+1-round flooding argument makes the final crash mask, known
// set, and payloads identical across every rank that completes the flood
// (failures observed mid-flood only join the next round's contribution).
// Everything decided afterwards — termination, the hosts map, the rollback
// epoch E, the restream plan — is a pure function of that agreed view, so
// no two survivors can disagree:
//
//   done   <=>  every logical rank is claimed by a success vote;
//   hosts  =    logical L on physical L unless crashed, else on the next
//               ascending surviving spare (throws when spares run out);
//   E      =    min own_committed over established hosts, forced to 0 when
//               any fresh recruit's buddy cannot restream epoch E (epoch 0
//               = regenerate from scratch; inputs are pure functions of
//               logical position).
//
// A failure during the sync itself (a restream peer dying) aborts the sync:
// the rank abandons everything below the *next* sync band and rejoins
// there, skipping one execution — failure-during-recovery degrades to one
// extra round, never to deadlock.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "collectives/comm.hpp"
#include "machine/checkpoint.hpp"
#include "machine/faults.hpp"
#include "machine/phase.hpp"

namespace camb::ckpt {

inline constexpr const char* kPhaseCheckpoint = "checkpoint";
inline constexpr const char* kPhaseCkptShrink = "ckpt_shrink";
inline constexpr const char* kPhaseCkptRollback = "ckpt_rollback";
inline const PhaseId kPhaseCheckpointId{kPhaseCheckpoint};
inline const PhaseId kPhaseCkptShrinkId{kPhaseCkptShrink};
inline const PhaseId kPhaseCkptRollbackId{kPhaseCkptRollback};

/// Tag blocks per band: 2^13 blocks = 2^25 tags, 15 full rounds in the
/// recovery region.
inline constexpr int kBandBlocks = 1 << 13;
inline constexpr int kBandWidth = kBandBlocks * kTagBlockWidth;
inline constexpr int kMaxRounds = 15;

inline int exec_band(int round) {
  return kRecoveryTagBase + 2 * round * kBandWidth;
}
inline int sync_band(int round) {
  return kRecoveryTagBase + (2 * round + 1) * kBandWidth;
}

/// Words of one flood view for physical machine size T.
inline i64 ckpt_flood_view_words(int T) {
  return 2 * ((T + 31) / 32) + 4 * static_cast<i64>(T);
}

/// Per-rank received words of one full flood with no failures: every rank
/// receives T-1 views in each of the spares+1 sub-rounds.
inline i64 ckpt_flood_recv_words_exact(int T, int spares) {
  return static_cast<i64>(spares + 1) * (T - 1) * ckpt_flood_view_words(T);
}

struct ResilientConfig {
  int nprocs = 0;      ///< logical ranks P; physical machine is P + spares
  int spares = 0;      ///< S
  i64 interval = 1;    ///< commit every `interval` boundary steps
  int buddy_stride = 1;
};

/// One agreed synchronization round, identical on every completing rank.
struct RoundRecord {
  int round = 0;
  bool done = false;
  i64 epoch = 0;            ///< agreed rollback epoch E (0 = from scratch)
  int claims = 0;           ///< logicals claimed by success votes
  std::vector<int> failed;  ///< agreed crashed physical ranks
  std::vector<int> fresh;   ///< logicals re-hosted onto a new physical rank
};
using RunLog = std::vector<RoundRecord>;

template <typename T>
class SessionT;

/// Per-physical-rank driver state for the round loop.  Templated over the
/// run's scalar: the agreement flood is dtype-independent control traffic
/// (fixed 8-byte words), but the snapshot store and restream wires carry
/// the algorithm's scalar T.
template <typename T>
class RollbackStateT {
 public:
  RollbackStateT(RankCtx& ctx, const ResilientConfig& cfg);

  int round() const { return round_; }
  /// Logical rank this physical rank currently hosts; -1 = idle spare.
  int hosted_logical() const;
  /// Agreed rollback epoch for the current execution round.
  i64 resume_epoch() const { return epoch_; }
  const std::vector<int>& hosts() const { return hosts_; }
  const ResilientConfig& config() const { return cfg_; }
  RankCtx& ctx() const { return ctx_; }
  CheckpointStoreT<T>& store() { return store_; }
  const RunLog& log() const { return log_; }

  /// Enter this round's exec band (cursor re-alignment).
  void begin_exec();
  /// Abandon an aborted execution: peers blocked on this round's exec-band
  /// tags fail over; the sync band still flows.
  void abort_exec();
  /// Record a ground-truth crash learned from a PeerFailedError.
  void note_failure(const PeerFailedError& err);
  /// One agreement flood + restream.  Returns true when the run is done.
  /// Throws PeerFailedError if a restream source dies mid-stream — the
  /// caller aborts the sync and rejoins one round later.
  bool round_sync(bool exec_success);
  /// Abandon an aborted sync and advance to the next round's sync.
  void abort_sync();

 private:
  std::vector<int> compute_hosts(const std::vector<char>& failed) const;

  RankCtx& ctx_;
  ResilientConfig cfg_;
  int T_;
  int round_ = 0;
  i64 epoch_ = 0;
  std::vector<char> known_dead_;
  std::vector<int> hosts_;
  CheckpointStoreT<T> store_;
  RunLog log_;
};
using RollbackState = RollbackStateT<double>;

/// The per-execution-attempt face every algorithm body programs against
/// under checkpointing: logical-rank geometry, recovery-region communicators
/// translated through the hosts map, and epoch-boundary commits.
/// Constructed fresh for every execution round (its construction leases the
/// round's commit tag block).  PlainSessionT below is the same face for a
/// run without checkpointing and ElasticSessionT for an elastic recovery
/// round; each body is one template over the three.
template <typename T>
class SessionT {
 public:
  /// A failure aborts the attempt and the round loop rolls back.
  static constexpr bool kRollback = true;

  explicit SessionT(RollbackStateT<T>& rb);

  /// Logical rank / logical machine size.
  int rank() const { return logical_; }
  int nprocs() const { return rb_.config().nprocs; }
  RankCtx& ctx() const { return rb_.ctx(); }
  i64 interval() const { return rb_.config().interval; }

  /// Rollback target: resume after boundary step resume_step().
  i64 resume_epoch() const { return rb_.resume_epoch(); }
  i64 resume_step() const { return rb_.resume_epoch() * interval(); }
  bool restored() const { return rb_.resume_epoch() >= 1; }
  /// The snapshot to restore from (valid when restored()).
  const SnapshotT<T>& snapshot() const;

  /// Recovery communicator over *logical* members, translated to physical
  /// ranks through the agreed hosts map.  Bodies make the identical sequence
  /// of comm() calls on every hosting rank (the SPMD lease contract).
  coll::Comm comm(const std::vector<int>& logical_members,
                  int tag_blocks = coll::Comm::kDefaultTagBlocks) const;

  /// The input hook: the owned piece of A (`matrix` 0) or B (1), generated
  /// in place by `fill` (inputs are pure functions of logical position).
  template <typename Fill>
  std::vector<T> input(int, Fill&& fill) const {
    return fill();
  }

  /// Epoch-boundary hook: commits a snapshot (built by `make`) when `step`
  /// is a multiple of the interval — replicates it to the buddy's host and
  /// stores the ward copy received from the ward's host, all in the
  /// dedicated "checkpoint" phase.  The body must set its own phase after
  /// the call.  Throws PeerFailedError if a commit peer died.
  void boundary(i64 step, const std::function<SnapshotT<T>()>& make);

 private:
  RollbackStateT<T>& rb_;
  int logical_;
  int commit_base_;
};
using Session = SessionT<double>;

/// The session of a run without checkpointing: logical ranks are machine
/// ranks, comm() builds the algorithm-region communicator, nothing is ever
/// restored, and boundary() is empty, so the snapshot callback is never
/// invoked.  Failures propagate to the body's caller.
template <typename T>
class PlainSessionT {
 public:
  static constexpr bool kRollback = false;

  explicit PlainSessionT(RankCtx& ctx) : ctx_(ctx) {}

  int rank() const { return ctx_.rank(); }
  int nprocs() const { return ctx_.nprocs(); }
  RankCtx& ctx() const { return ctx_; }

  static constexpr i64 resume_step() { return 0; }
  static constexpr bool restored() { return false; }
  [[noreturn]] const SnapshotT<T>& snapshot() const {
    throw Error("a plain run has no snapshot to restore");
  }

  coll::Comm comm(std::vector<int> members,
                  int tag_blocks = coll::Comm::kDefaultTagBlocks) const {
    return coll::Comm(ctx_, std::move(members), tag_blocks);
  }

  /// The input hook, as in SessionT: generated in place by `fill`.
  template <typename Fill>
  std::vector<T> input(int, Fill&& fill) const {
    return fill();
  }

  template <typename Make>
  void boundary(i64, Make&&) const {}

 protected:
  RankCtx& ctx_;
};
using PlainSession = PlainSessionT<double>;

/// The session of an elastic recovery round (matmul/elastic.hpp): logical
/// ranks are indices into the survivors active on the re-planned grid,
/// comm() maps logical members through that actives list onto
/// recovery-region communicators, and the input hook hands out the panels
/// coll::regrid migrated here instead of generating them.  Like a plain
/// session it never restores, and failures propagate to the caller.
template <typename T>
class ElasticSessionT : public PlainSessionT<T> {
 public:
  ElasticSessionT(RankCtx& ctx, std::vector<int> actives, int logical,
                  std::vector<T> a, std::vector<T> b)
      : PlainSessionT<T>(ctx),
        actives_(std::move(actives)),
        logical_(logical),
        inputs_{std::move(a), std::move(b)} {}

  int rank() const { return logical_; }
  int nprocs() const { return static_cast<int>(actives_.size()); }

  coll::Comm comm(std::vector<int> logical_members,
                  int tag_blocks = coll::Comm::kDefaultTagBlocks) const {
    for (int& m : logical_members) m = actives_[static_cast<std::size_t>(m)];
    return coll::Comm::recovery(this->ctx_, std::move(logical_members),
                                tag_blocks);
  }

  /// The migrated piece of A (`matrix` 0) or B (1); each is taken once.
  template <typename Fill>
  std::vector<T> input(int matrix, Fill&&) {
    return std::move(inputs_[matrix == 0 ? 0 : 1]);
  }

 private:
  std::vector<int> actives_;
  int logical_;
  std::vector<T> inputs_[2];
};

/// The round loop run by every physical rank: attempt the body, store its
/// output under the results mutex, synchronize, repeat until every logical
/// rank's output is claimed.  Crashed ranks simply stop participating;
/// spares idle until the hosts map drafts them.  T is the run's scalar —
/// the snapshot wires the body commits through SessionT<T>::boundary.
template <typename T, typename Output, typename Body>
void run_resilient(RankCtx& ctx, const ResilientConfig& cfg, Body&& body,
                   std::vector<std::optional<Output>>* results,
                   std::mutex* results_mu, RunLog* log_out) {
  RollbackStateT<T> rb(ctx, cfg);
  bool skip_exec = false;
  while (true) {
    const int logical = rb.hosted_logical();
    bool success = false;
    if (!skip_exec && logical >= 0) {
      rb.begin_exec();
      try {
        SessionT<T> session(rb);
        Output out = body(session);
        {
          std::lock_guard<std::mutex> lock(*results_mu);
          // Re-executions overwrite bit-identical outputs (determinism).
          (*results)[static_cast<std::size_t>(logical)] = std::move(out);
        }
        success = true;
      } catch (const PeerFailedError& err) {
        rb.note_failure(err);
        rb.abort_exec();
      }
    }
    skip_exec = false;
    try {
      if (rb.round_sync(success)) break;
    } catch (const PeerFailedError& err) {
      rb.note_failure(err);
      rb.abort_sync();
      skip_exec = true;
    }
  }
  if (log_out != nullptr) *log_out = rb.log();
}

}  // namespace camb::ckpt
