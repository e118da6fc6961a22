// machine.hpp — the simulated distributed-memory machine (§3.1).
//
// A Machine runs an SPMD program: P logical processors, each backed by an OS
// thread with its own local data, communicating only through the counted
// Network.  This is the substrate on which all parallel matrix multiplication
// algorithms in this library execute, replacing the MPI cluster of the
// paper's setting with an instrumented equivalent (see DESIGN.md §1).
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "machine/barrier.hpp"
#include "machine/fiber.hpp"
#include "machine/network.hpp"
#include "machine/reliable.hpp"
#include "machine/tags.hpp"
#include "util/rng.hpp"

namespace camb {

class Machine;

/// One failure-detection event: `detector` concluded `failed` cannot deliver
/// tag `tag` (because it crashed, or abandoned the algorithm phase), at the
/// detector's logical clock.  The matching zero-word suspicion probe is
/// accounted in the "heartbeat" phase by the network.
struct DetectionEvent {
  int detector = -1;
  int failed = -1;
  int tag = 0;
  double clock = 0.0;
  bool peer_crashed = false;
};

/// What the crash-fault machinery observed during one run.  Populated by
/// Machine::run; empty when no rank failed.
struct CrashOutcome {
  std::vector<int> crashed;          ///< ranks whose planned crash fired
  std::vector<double> crash_clocks;  ///< their clocks at death (parallel)
  std::vector<int> errored;          ///< ranks that threw (not crashes)
  std::vector<int> abandoned;        ///< ranks that called abandon()
  std::vector<DetectionEvent> detections;  ///< sorted for determinism
  std::vector<UndeliveredMessage> debris;  ///< undelivered mail after failures

  bool any_crashed() const { return !crashed.empty(); }
};

/// Per-rank handle passed to the SPMD program. All communication and
/// synchronization a rank performs goes through its RankCtx.
///
/// Logical clock model (a LogP-style schedule on top of the α-β costs):
/// every counted send advances the sender's clock by α + β·w and stamps the
/// message; every counted receive synchronizes the receiver's clock to at
/// least the stamp.  The maximum final clock over ranks is the simulated
/// critical-path *time* of the program — it captures pipelining and
/// imbalance that the aggregate word/message counters cannot (e.g. a
/// binomial broadcast's root serializing its log p sends).
class RankCtx {
 public:
  RankCtx(Machine& machine, int rank);

  int rank() const { return rank_; }
  int nprocs() const;

  /// Point-to-point primitives (buffered send, blocking receive).
  /// Payloads are pooled move-only Buffers; std::vector<double> arguments
  /// convert implicitly (adopting their storage — a move, never a copy), and
  /// a received Buffer moves back into a vector on assignment, so call sites
  /// written against the vector API compile and behave identically.
  /// `recv` throws PeerFailedError (naming the failed rank) when `src` has
  /// been marked crashed — or marked abandoned, for tags below
  /// kRecoveryTagBase — and nothing matching remains buffered.
  void send(int dst, int tag, Buffer payload);
  Buffer recv(int src, int tag);

  /// Receive with a logical-clock deadline: returns the payload if a
  /// matching message with arrival stamp <= `deadline` is (or becomes)
  /// available; returns nullopt if the source failed (kSrcDead /
  /// kSrcDeviated, reported via `status` when non-null) or a matching
  /// message exists whose stamp exceeds the deadline (kTimedOut; the
  /// message stays queued and the caller's clock advances to the deadline).
  /// Pass an infinite deadline to wait out everything except failure —
  /// the shape the shrink collective is built on.
  std::optional<Buffer> recv_timed(int src, int tag, double deadline,
                                   RecvStatus* status = nullptr);

  /// Declare that this rank abandons the algorithm phase (typically after
  /// catching PeerFailedError mid-collective): peers blocked on its
  /// algorithm-tag messages (< kRecoveryTagBase) fail over with
  /// PeerFailedError instead of hanging, while recovery-tag traffic from
  /// this rank still flows.  The cascade this triggers is what funnels
  /// every survivor into the recovery protocol.
  void abandon();

  /// Banded abandon for the checkpoint/rollback protocol: peers blocked on
  /// this rank's messages with tags below `tag_limit` fail over, while tags
  /// at or above it (the next rollback round's band) still flow.  Plain
  /// abandon() is the special case tag_limit == kRecoveryTagBase.
  void abandon_below(int tag_limit);

  /// Simultaneous exchange with a peer: send `payload`, receive the peer's.
  /// Models one use of a bidirectional link; deadlock-free because sends are
  /// buffered.
  Buffer sendrecv(int peer, int tag, Buffer payload);

  /// Whole-machine barrier (synchronizes all logical clocks to the max).
  /// Crashed and errored ranks are dropped from the barrier automatically.
  void barrier();

  /// Label subsequent traffic of this rank for per-phase accounting.  Pass
  /// an interned PhaseId on hot paths; the string form interns per call.
  void set_phase(PhaseId phase);
  void set_phase(const std::string& phase);

  /// This rank's logical clock (seconds under the machine's α-β params).
  double clock() const { return clock_; }
  /// Advance the clock by local work (e.g. γ · flops), never backwards.
  /// Scaled by this rank's straggler factor when a fault plan is active.
  void advance_clock(double seconds);

  /// This rank's straggler slowdown (1 unless a fault plan marks it).
  double straggler_factor() const { return straggler_; }

  /// Working-set accounting: algorithms report the buffers they hold so the
  /// per-rank peak can be *measured* (the §6.2 memory claims).  Balanced
  /// acquire/release is the caller's contract; WorkingSet below is the RAII
  /// helper.  Canonical unit is bytes (exact for every element width); the
  /// word-denominated wrappers assume 8-byte elements and the word accessors
  /// return exact (possibly half-integer) words.
  void acquire_bytes(i64 bytes);
  void release_bytes(i64 bytes);
  void acquire_words(i64 words) { acquire_bytes(words * 8); }
  void release_words(i64 words) { release_bytes(words * 8); }
  i64 current_bytes() const { return current_bytes_; }
  i64 peak_bytes() const { return peak_bytes_; }
  double current_words() const {
    return static_cast<double>(current_bytes_) / 8.0;
  }
  double peak_words() const { return static_cast<double>(peak_bytes_) / 8.0; }

  /// Deterministic per-rank RNG stream.
  Rng& rng() { return rng_; }

  /// This rank's tag-lease cursor (machine/tags.hpp): communicators draw
  /// their tag blocks here.  Per-rank by design — determinism comes from
  /// every rank performing the same sequence of lease requests.
  TagAllocator& tags() { return tags_; }

  Network& network();

  /// This rank's payload pool (owned by the network; installed as the
  /// thread's current pool while the SPMD program runs).
  BufferPool& pool();

 private:
  Machine& machine_;
  int rank_;
  double clock_ = 0.0;
  double straggler_ = 1.0;
  i64 current_bytes_ = 0;
  i64 peak_bytes_ = 0;
  Rng rng_;
  TagAllocator tags_;
};

/// RAII working-set registration: holds a buffer's footprint against the
/// rank's memory accounting for the lifetime of the guard.  The two-argument
/// form is word-denominated (8-byte elements, the historical default); the
/// three-argument form takes an element count and width for typed buffers.
class WorkingSet {
 public:
  WorkingSet(RankCtx& ctx, i64 words) : ctx_(ctx), bytes_(words * 8) {
    ctx_.acquire_bytes(bytes_);
  }
  WorkingSet(RankCtx& ctx, i64 elems, i64 elem_bytes)
      : ctx_(ctx), bytes_(elems * elem_bytes) {
    ctx_.acquire_bytes(bytes_);
  }
  ~WorkingSet() { ctx_.release_bytes(bytes_); }
  WorkingSet(const WorkingSet&) = delete;
  WorkingSet& operator=(const WorkingSet&) = delete;

 private:
  RankCtx& ctx_;
  i64 bytes_;
};

/// The machine itself: owns the network and runs SPMD programs.
class Machine {
 public:
  /// Creates a machine with `nprocs` logical processors.  `seed` drives the
  /// per-rank RNG streams.
  explicit Machine(int nprocs, std::uint64_t seed = 42);

  int nprocs() const { return network_.nprocs(); }
  std::uint64_t seed() const { return seed_; }

  Network& network() { return network_; }
  const CommStats& stats() const { return network_.stats(); }
  CommStats& stats() { return network_.stats(); }

  /// Run `program` as an SPMD computation: one execution context per rank
  /// (an OS thread or a fiber, per set_scheduler), all started together,
  /// joined before returning.
  ///
  /// Failure semantics: a rank whose planned crash fires (RankCrashed) exits
  /// cleanly — it is marked dead in every mailbox and dropped from the
  /// barrier, so blocked peers detect the failure (PeerFailedError) instead
  /// of hanging.  A rank that throws any other exception is treated the same
  /// way for liveness, and its exception is rethrown here after the join —
  /// non-detection errors first (by rank order), then a PeerFailedError
  /// naming an actually-crashed rank, then any remaining error.  A run where
  /// ranks crashed but every survivor completed returns normally; consult
  /// crash_outcome().  After a fully clean run, verifies no undelivered
  /// messages remain, listing the leaked envelopes in the failure message.
  void run(const std::function<void(RankCtx&)>& program);

  /// Choose the execution substrate for run(): thread-per-rank (the
  /// default) or fibers multiplexed on pool-width worker threads (the only
  /// mode that reaches P in the tens of thousands).  kDefault defers to
  /// set_default_scheduler_kind / $CAMB_SCHEDULER.  Must be set before
  /// run(); simulation results are identical across schedulers.
  void set_scheduler(const SchedulerSpec& spec) { scheduler_ = spec; }
  const SchedulerSpec& scheduler() const { return scheduler_; }

  Barrier& barrier() { return barrier_; }

  /// Turn on per-message event tracing; returns the trace (owned by the
  /// machine, valid for its lifetime).  Idempotent.
  Trace& enable_trace();
  /// The active trace, or nullptr when tracing is off.
  Trace* trace() { return trace_.get(); }

  /// Turn on deterministic fault injection: every subsequent counted send
  /// consults the plan (see faults.hpp for the model and cost-accounting
  /// rules).  `fault_seed` alone determines the injected timing-event
  /// sequence; `sdc_seed` independently drives the drop/dup/flip streams
  /// (0 derives one from fault_seed, kSeedDomainSdc).  Must be called
  /// before run(); replaces any previously attached plan.
  FaultPlan& enable_faults(const FaultProfile& profile,
                           std::uint64_t fault_seed,
                           std::uint64_t sdc_seed = 0);
  /// The active fault plan, or nullptr when fault injection is off.
  FaultPlan* fault_plan() { return fault_plan_.get(); }

  /// Turn on the reliable transport (machine/reliable.hpp): every counted
  /// send carries a checksummed envelope, the fault plan's SDC events are
  /// physically injected and healed (or surface as TransportError), and the
  /// repair tax is accounted in the "transport" phase.  Required whenever
  /// the fault profile has any drop/flip/dup probability — run() fails fast
  /// otherwise, because a dropped copy without retransmission would hang
  /// the receiver.  Must be called before run().
  ReliableTransport& enable_reliable_transport(std::uint64_t checksum_seed);
  /// The active transport, or nullptr when the network is trusted.
  ReliableTransport* reliable_transport() { return reliable_.get(); }

  /// After a clean run under SDC injection: injected duplicates still parked
  /// in mailboxes at exit (their originals were delivered — this is benign
  /// transport debris, excluded from the leak check).
  const std::vector<UndeliveredMessage>& transport_debris() const {
    return transport_debris_;
  }

  /// Turn on deterministic crash injection: each listed rank dies at a send
  /// position drawn from (crash_seed, rank) in [0, max_send_position].
  /// Must be called before run(); replaces any previously attached plan.
  CrashPlan& enable_crashes(const std::vector<int>& ranks,
                            std::uint64_t crash_seed, i64 max_send_position);
  /// Crash injection at explicit send positions.
  CrashPlan& enable_crashes(std::vector<CrashEvent> events);
  /// The active crash plan, or nullptr when crash injection is off.
  CrashPlan* crash_plan() { return crash_plan_.get(); }

  /// After run(): what the crash machinery observed (empty on a clean run).
  const CrashOutcome& crash_outcome() const { return outcome_; }

  /// Record a failure-detection event (called by RankCtx from the detecting
  /// rank's thread; the zero-word heartbeat probe is accounted separately by
  /// the network).
  void note_detection(DetectionEvent event);
  /// Record that `rank` abandoned the algorithm phase.
  void note_abandon(int rank);

  /// α-β parameters driving the logical clocks (default α = β = 1, i.e. the
  /// clock counts messages + words directly).
  void set_time_params(const AlphaBeta& params) { time_params_ = params; }
  const AlphaBeta& time_params() const { return time_params_; }

  /// After run(): each rank's final logical clock, and the max over ranks —
  /// the simulated critical-path execution time.  A crashed rank's entry is
  /// its clock at death.
  const std::vector<double>& final_clocks() const { return final_clocks_; }
  double critical_path_time() const;

  /// After run(): each rank's peak registered working set in bytes, and the
  /// word-denominated max — meaningful only for programs that register
  /// buffers (WorkingSet).
  const std::vector<i64>& peak_memory_bytes() const { return peak_memory_; }
  double max_peak_memory_words() const;

  /// Barrier clock synchronization support (used by RankCtx::barrier).
  double sync_clock_at_barrier(int rank, double clock);

 private:
  /// Liveness bookkeeping when rank `r` stops participating: mark it dead in
  /// every mailbox and shrink the barrier so survivors cannot hang on it.
  void handle_rank_failure(int r);

  Network network_;
  Barrier barrier_;
  std::uint64_t seed_;
  std::unique_ptr<Trace> trace_;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<CrashPlan> crash_plan_;
  std::unique_ptr<ReliableTransport> reliable_;
  std::vector<UndeliveredMessage> transport_debris_;
  AlphaBeta time_params_{1.0, 1.0};
  SchedulerSpec scheduler_;
  std::vector<double> final_clocks_;
  std::vector<double> barrier_clocks_;
  /// Max over barrier_clocks_, reduced once per barrier release by the
  /// barrier's on_release hook (written and read under the barrier mutex).
  double barrier_max_ = 0.0;
  std::vector<i64> peak_memory_;
  CrashOutcome outcome_;
  std::mutex outcome_mutex_;
};

}  // namespace camb
