// runner.hpp — drives a parallel algorithm on the simulated machine:
// builds the machine, runs the SPMD body, reassembles the distributed
// output, verifies it against the serial reference, and packages the
// measured communication next to the exact analytic prediction.
//
// This is the harness every integration test and benchmark goes through, so
// "measured == predicted" is checked at one well-tested choke point.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "collectives/rollback.hpp"
#include "util/scalar.hpp"
#include "core/bounds.hpp"
#include "machine/faults.hpp"
#include "machine/fiber.hpp"
#include "machine/trace.hpp"
#include "util/rng.hpp"
#include "matmul/abft.hpp"
#include "matmul/alg25d.hpp"
#include "matmul/cannon.hpp"
#include "matmul/carma.hpp"
#include "matmul/grid3d.hpp"
#include "matmul/grid3d_agarwal.hpp"
#include "matmul/elastic.hpp"
#include "matmul/grid3d_staged.hpp"
#include "matmul/naive_bcast.hpp"
#include "matmul/summa.hpp"

namespace camb::mm {

/// How a run's result is checked.
enum class VerifyMode {
  kNone,       ///< no verification (pure communication measurement)
  kReference,  ///< assemble C, compare to the cubic-time serial reference
  kFreivalds,  ///< assemble C, probabilistic O(n^2) Freivalds check
  kAuto,       ///< reference for small shapes, Freivalds for large ones
};

/// Schedule-perturbation request for a run (model in machine/faults.hpp).
/// One CLI-level master seed reproduces everything: the machine's rank RNG
/// streams and the fault plan's decisions derive from it through independent
/// domains (util/rng.hpp derive_seed), so logging `master_seed` alone makes
/// any stress failure replayable.
struct PerturbConfig {
  std::string profile = "none";    ///< fault_profile_by_name key
  std::uint64_t master_seed = 42;  ///< drives every derived seed below
  /// Nonzero: use this fault seed directly instead of deriving it (the CLI's
  /// --fault-seed override); rank RNG streams still derive from master_seed.
  std::uint64_t fault_seed_override = 0;

  bool enabled() const { return profile != "none"; }
  std::uint64_t machine_seed() const {
    return derive_seed(master_seed, kSeedDomainRankRng);
  }
  std::uint64_t fault_seed() const {
    return fault_seed_override != 0 ? fault_seed_override
                                    : derive_seed(master_seed, kSeedDomainFaults);
  }
};

/// What the fault layer injected into one run, plus the seeds to replay it.
struct FaultReport {
  bool enabled = false;
  std::string profile = "none";
  std::uint64_t master_seed = 42;
  std::uint64_t fault_seed = 0;
  i64 injected_delays = 0;
  i64 injected_failures = 0;  ///< sends that needed at least one retry
  i64 total_retries = 0;      ///< failed attempts summed over sends
  i64 reordered_messages = 0;
  int stragglers = 0;
  /// One-line reproducibility record (profile, seeds, injected counts) for
  /// logs and test failure messages.
  std::string summary() const;
};

/// Crash-injection request for a run: each listed rank dies at a send
/// position drawn deterministically from the crash seed (machine/faults.hpp).
/// Like the fault seed, the crash seed derives from the one master seed, so
/// a crash scenario replays from `--master-seed` alone.
struct CrashConfig {
  std::vector<int> ranks;        ///< ranks armed to crash
  i64 max_send_position = 64;    ///< positions drawn from [0, this]
  /// Nonzero: use this crash seed directly instead of deriving it.
  std::uint64_t crash_seed_override = 0;

  bool enabled() const { return !ranks.empty(); }
  std::uint64_t crash_seed(std::uint64_t master_seed) const {
    return crash_seed_override != 0
               ? crash_seed_override
               : derive_seed(master_seed, kSeedDomainCrashes);
  }
};

/// What the crash-fault machinery observed in one run, and what the
/// fault tolerance cost: populated whenever crash injection is armed or an
/// ABFT algorithm ran (enabled=false otherwise).
struct RecoveryReport {
  bool enabled = false;  ///< crash injection was armed
  bool abft = false;     ///< the run used a checksum-augmented algorithm
  std::uint64_t crash_seed = 0;
  std::vector<int> planned;    ///< ranks armed to crash
  std::vector<int> crashed;    ///< ranks whose crash actually fired
  std::vector<int> abandoned;  ///< survivors that took the degraded path
  i64 detection_events = 0;    ///< failure detections recorded by survivors
  double first_detection_clock = 0;  ///< earliest detection (logical clock)
  double last_detection_clock = 0;
  /// Zero-word suspicion probes (messages in the "heartbeat" phase: failure
  /// detection adds messages but zero words to the algorithm phases).
  i64 heartbeat_probes = 0;
  /// Max over ranks of words received in the shrink + recover + heartbeat
  /// phases — what the recovery protocol itself moved.  Words are exact
  /// (possibly half-integer) for every dtype; see PhaseCounters.
  double recovery_recv_words = 0;
  /// Max over ranks of words received in the ABFT encode phase — the
  /// fault-tolerance tax paid even on fault-free runs.
  double encode_recv_words = 0;
  /// measured_critical_recv ÷ the Theorem 3 bound (0 when the bound is 0):
  /// the fault-tolerance overhead ratio tabled by bench_abft_overhead.
  double overhead_ratio = 0;
  /// Crash debris: envelopes (and their words) that were already deposited
  /// in mailboxes when the machine stopped and never consumed — sends the
  /// dead rank got out the door plus traffic addressed to it.
  i64 debris_envelopes = 0;
  double debris_words = 0;
  /// One-line reproducibility record for logs and failure messages.
  std::string summary() const;
};

/// Silent-data-corruption request for a run: per-copy message drop /
/// payload-bit-flip / duplication draws at the network layer (healed by the
/// reliable transport, machine/reliable.hpp) and post-run bit-flips in
/// output tiles (healed by the ABFT checksum correction).  Both draw streams
/// derive from the master seed through their own domains (kSeedDomainSdc,
/// kSeedDomainMemSdc), so existing fault profiles replay bit-identically
/// and one logged seed reproduces every corruption event.
struct SdcConfig {
  /// Per-copy probability applied to message drop, payload bit-flip, and
  /// duplication alike (merged into the run's fault profile as drop_prob /
  /// flip_prob / dup_prob).  Requires `reliable`: a dropped copy with no
  /// retransmission would hang its receiver, so the machine rejects the
  /// combination up front.
  double message_rate = 0;
  /// Per-rank probability of one integer bit-flip in the rank's output
  /// tile, injected after the machine stops and before assembly.  Requires
  /// a checksum-augmented (ABFT) algorithm — the correction pass is the
  /// healing layer — and a crash-free, non-checkpointed run.
  double mem_rate = 0;
  /// Nonzero: use this SDC seed directly instead of deriving it (the CLI's
  /// --sdc-seed override).
  std::uint64_t sdc_seed_override = 0;
  /// Attach the reliable transport: checksummed envelopes, ack/nack, and
  /// deterministic retransmit with bounded backoff on the logical clock.
  bool reliable = false;

  bool enabled() const { return message_rate > 0 || mem_rate > 0 || reliable; }
  bool message_sdc() const { return message_rate > 0; }
  std::uint64_t sdc_seed(std::uint64_t master_seed) const {
    return sdc_seed_override != 0 ? sdc_seed_override
                                  : derive_seed(master_seed, kSeedDomainSdc);
  }
  std::uint64_t mem_seed(std::uint64_t master_seed) const {
    return sdc_seed_override != 0
               ? derive_seed(sdc_seed_override, kSeedDomainMemSdc)
               : derive_seed(master_seed, kSeedDomainMemSdc);
  }
};

/// What the corruption layers injected into one run and which defense caught
/// each event (enabled=false when no SDC was requested).  The invariant the
/// chaos tests pin: every injected event is healed at the transport (drops
/// and flips retransmitted, dups discarded) or corrected by the ABFT
/// checksums; `escaped` counts detections the single-error code could not
/// localize — the Freivalds backstop's territory, zero in a single-error run.
struct CorruptionReport {
  bool enabled = false;
  std::uint64_t sdc_seed = 0;
  i64 injected_drops = 0;       ///< message copies lost on the wire
  i64 injected_flips = 0;       ///< message copies delivered corrupted
  i64 injected_dups = 0;        ///< sends whose clean copy arrived twice
  i64 injected_mem_flips = 0;   ///< output-tile bit-flips injected post-run
  i64 caught_at_transport = 0;  ///< corrupt copies the checksum rejected
  i64 retransmits = 0;          ///< extra on-wire copies (drop + flip)
  double retransmitted_words = 0;  ///< sender-side transport-phase word tax
  i64 acks = 0;                 ///< clean deliveries acknowledged
  i64 nacks = 0;                ///< zero-word rejections of corrupt copies
  i64 dup_discards = 0;         ///< duplicates recognized and dropped on pop
  i64 transport_debris = 0;     ///< run-end dup envelopes never popped (benign)
  i64 detected_by_checksums = 0;  ///< ABFT syndrome detections (memory SDC)
  i64 corrected_by_abft = 0;      ///< of those, localized and repaired
  i64 escaped = 0;  ///< detected but uncorrectable; must be 0 single-error
  /// One-line reproducibility record for logs and failure messages.
  std::string summary() const;
};

/// Checkpoint/restart request for a run (collectives/rollback.hpp): commit a
/// buddy-replicated snapshot every `interval` epoch-boundary steps, run on
/// P + spares physical ranks, and roll back + re-execute on a crash instead
/// of reconstructing (ABFT) or shrinking.
struct CheckpointConfig {
  i64 interval = 0;     ///< 0 = checkpointing off
  int buddy_stride = 1; ///< snapshot replica goes to logical (L + stride) % P
  int spares = 0;       ///< extra physical ranks that adopt dead logicals

  bool enabled() const { return interval > 0; }
};

/// What the checkpoint/rollback layer did in one run (enabled=false when
/// checkpointing was off).
struct ResilienceReport {
  bool enabled = false;
  i64 interval = 0;
  int buddy_stride = 1;
  int spares = 0;
  int rounds = 0;          ///< execution rounds until agreement (1 = clean)
  i64 final_epoch = 0;     ///< epoch the winning round resumed from (0 = scratch)
  std::vector<int> failed; ///< agreed crashed physical ranks, all rounds
  std::vector<int> fresh_logicals;  ///< logicals re-hosted onto spares
  /// Max over ranks of words received in the commit phase ("checkpoint"):
  /// the steady-state checkpoint tax, paid even on crash-free runs.
  double checkpoint_recv_words = 0;
  /// Max over ranks of agreement-flood words ("ckpt_shrink").
  double flood_recv_words = 0;
  /// Max over ranks of snapshot-restream words to fresh recruits
  /// ("ckpt_rollback"); 0 on crash-free runs.
  double restream_recv_words = 0;
  /// The per-round agreement records from the rank that drove assembly.
  ckpt::RunLog log;
  /// One-line reproducibility record for logs and failure messages.
  std::string summary() const;
};

/// What the elastic shrink-and-regrid layer did in one run (enabled=false
/// when the run was not elastic).  The word fields mirror the closed-form
/// migration-tax accounting: on a crashed run, every survivor's received
/// words equal base-at-P′ + shrink flood + regrid_recv_words_exact, with
/// zero tolerance — the elastic sweep pins exactly that.
struct ElasticReport {
  bool enabled = false;
  int rounds = 0;             ///< recovery rounds taken (0 = clean run)
  std::vector<int> failed;    ///< agreed failed machine ranks
  i64 survivors = 0;          ///< P′ of the final agreement (P when clean)
  i64 active_ranks = 0;       ///< ranks the final grid uses
  core::Grid3 grid;           ///< the grid the run finished on
  /// Max over ranks of words received in the elastic_regrid phase — the
  /// measured migration tax (0 when clean).
  double migration_recv_words = 0;
  /// Max over ranks of shrink-agreement flood words (0 when clean).
  double shrink_recv_words = 0;
  /// Max over ranks of words received in the algorithm phases — the
  /// execution words on whichever grid the run finished on.
  double exec_recv_words = 0;
  /// Theorem 3 bound for (shape, active_ranks), in this run's words: what
  /// the post-shrink execution communication is compared against.
  double bound_words_at_pprime = 0;
  /// exec_recv_words ÷ bound_words_at_pprime (0 when the bound is 0).
  double overhead_vs_bound = 0;
  /// One-line record (rounds, failed set, new grid, tax) for logs.
  std::string summary() const;
};

/// Everything configurable about how the harness executes an algorithm.
struct RunOptions {
  VerifyMode verify = VerifyMode::kNone;
  /// Scalar type the whole data path runs in (Buffer payloads, collectives,
  /// GEMM, ABFT checksums, checkpoint snapshots).  Word accounting stays
  /// exact per dtype: an element of width w bytes costs w/8 words on the
  /// wire.  Checkpoint/rollback runs in every dtype — snapshots travel as
  /// homogeneous payloads of the run scalar; only the agreement flood stays
  /// fixed 8-byte control traffic.
  DType dtype = DType::kF64;
  PerturbConfig perturb;
  CrashConfig crash;
  SdcConfig sdc;
  CheckpointConfig checkpoint;
  /// Elastic shrink-and-regrid (matmul/elastic.hpp): on crash detection the
  /// survivors agree, re-plan the optimal grid for P′, migrate the live
  /// panels, and finish there.  Only summa, grid3d and alg25d have an
  /// elastic re-plan; mutually exclusive with checkpointing and with
  /// memory-SDC injection (both are rival recovery disciplines).
  ElasticConfig elastic;
  /// Record every counted send (machine/trace.hpp) and return the log in
  /// RunReport::trace_events — what the closed-form transport-tax predictor
  /// (collectives/coll_cost.hpp) replays.  Off by default: tracing allocates
  /// per message.
  bool collect_trace = false;
  /// Execution substrate for the SPMD ranks (machine/fiber.hpp): OS thread
  /// per rank, or fibers on pool-width workers.  Simulation results are
  /// identical either way; fibers are the only mode that reaches P ≈ 65,536.
  SchedulerSpec scheduler;

  static RunOptions verified(VerifyMode mode) {
    RunOptions opts;
    opts.verify = mode;
    return opts;
  }
};

/// Everything a caller needs to compare an executed run against the theory.
struct RunReport {
  /// The scalar type the run executed in, and its element width in bytes.
  /// Every *_words field below is in 8-byte words — exact (integer or
  /// half-integer) for all supported widths — so measured counts compare to
  /// element-count predictions via the width factor element_bytes / 8.
  DType dtype = DType::kF64;
  i64 element_bytes = 8;
  /// Max over ranks of words received during algorithm phases.
  double measured_critical_recv = 0;
  /// Max over ranks of words sent.
  double measured_critical_sent = 0;
  /// Max over ranks of messages sent (the latency term).
  i64 measured_critical_messages = 0;
  /// Per-rank totals (indexed by machine rank): the full communication
  /// profile behind the critical-path maxima above.  The equivalence sweep
  /// pins these rank by rank, not just their maxima.
  std::vector<double> rank_recv_words;
  std::vector<double> rank_sent_words;
  std::vector<i64> rank_messages;
  /// FNV-1a over the assembled output's exact bit pattern; 0 when the run
  /// skipped assembly (VerifyMode::kNone).
  std::uint64_t output_hash = 0;
  /// Scheduled critical-path time under the machine's logical clocks
  /// (default params alpha = beta = 1, i.e. messages + words along the
  /// actual dependency structure — see RankCtx's clock model).
  double simulated_time = 0;
  /// Max over ranks of the registered peak working set (words); nonzero only
  /// for algorithms instrumented with WorkingSet (Algorithm 1 and its staged
  /// variant).
  double measured_peak_memory_words = 0;
  /// Exact analytic prediction of measured_critical_recv in *elements*
  /// (−1 if the algorithm has no exact predictor).  Dtype-independent: the
  /// closed forms count elements moved; multiply by element_bytes / 8 — see
  /// predicted_words() — to land in the measured unit.
  i64 predicted_critical_recv = -1;
  /// Control-plane words on the predicted critical path: protocol traffic
  /// (shrink agreement bitmask floods) whose payloads are fixed 8-byte
  /// words regardless of the data scalar, so it never scales with dtype.
  /// 0 for a plain fault-free run; nonzero for the ABFT variants (shrink
  /// agreement) and for checkpointed runs (the rollback agreement flood).
  i64 predicted_control_words = 0;
  /// Critical-path received words per named phase.
  std::map<std::string, double> phase_recv;
  /// Total words that crossed the network (sum over ranks of sent words).
  double total_network_words = 0;
  /// Theorem 3 lower bound for (shape, P), scaled into this run's words
  /// (the theory counts elements; words = elements × element_bytes / 8).
  double lower_bound_words = 0;
  /// Max |C − C_ref| over all entries; NaN if verification was skipped.
  double max_abs_error = 0;
  bool verified = false;
  /// Perturbation record: seeds and injected-fault counts (enabled=false and
  /// all-zero counts for unperturbed runs).
  FaultReport faults;
  /// Crash/recovery record (enabled=false for runs without crash injection).
  RecoveryReport recovery;
  /// Checkpoint/rollback record (enabled=false when checkpointing was off).
  ResilienceReport resilience;
  /// Corruption record: what SDC injection did and which layer healed it
  /// (enabled=false when no SDC was requested).
  CorruptionReport corruption;
  /// Elastic shrink-and-regrid record (enabled=false for non-elastic runs).
  ElasticReport elastic;
  /// The counted-send log when RunOptions::collect_trace was set (empty
  /// otherwise); feed to coll::predicted_transport_phase.
  std::vector<camb::MessageEvent> trace_events;

  /// The element-count prediction scaled into this run's words: the value
  /// measured_critical_recv must equal exactly on fault-free runs.
  double predicted_words() const {
    if (predicted_critical_recv < 0) return -1.0;
    return static_cast<double>(predicted_critical_recv) *
               (static_cast<double>(element_bytes) / 8.0) +
           static_cast<double>(predicted_control_words);
  }
};

/// Algorithm 1 on its grid.  `verify` assembles C and checks it (mode
/// kReference for `true`; use the VerifyMode / RunOptions overloads for
/// Freivalds or perturbed runs).  run_grid3d, run_summa and run_alg25d are
/// the elastic-capable runners: with RunOptions::elastic.enabled they run
/// the same body through the shrink-and-regrid driver (matmul/elastic.hpp) —
/// word-identical to the base run when crash-free; crashed runs shrink to
/// the survivors' optimal grid and finish there, with the migration tax
/// reported and pinned to its closed form.  Every other runner rejects the
/// switch with a named Error.
RunReport run_grid3d(const Grid3dConfig& cfg, bool verify);
RunReport run_grid3d(const Grid3dConfig& cfg, VerifyMode mode);
RunReport run_grid3d(const Grid3dConfig& cfg, const RunOptions& opts);

/// The §6.2 staged (limited-memory) variant of Algorithm 1.
RunReport run_grid3d_staged(const Grid3dStagedConfig& cfg, bool verify);
RunReport run_grid3d_staged(const Grid3dStagedConfig& cfg,
                            const RunOptions& opts);

/// The Agarwal et al. 1995 variant (All-to-All instead of Reduce-Scatter).
RunReport run_grid3d_agarwal(const Grid3dAgarwalConfig& cfg, bool verify);
RunReport run_grid3d_agarwal(const Grid3dAgarwalConfig& cfg,
                             const RunOptions& opts);

/// The Demmel et al. 2013 recursive algorithm (BFS CARMA, P = 2^levels).
RunReport run_carma(const CarmaConfig& cfg, bool verify);
RunReport run_carma(const CarmaConfig& cfg, const RunOptions& opts);

/// The 2.5D replication algorithm on a g×g×c grid.
RunReport run_alg25d(const Alg25dConfig& cfg, bool verify);
RunReport run_alg25d(const Alg25dConfig& cfg, const RunOptions& opts);

/// SUMMA on a g×g grid.
RunReport run_summa(const SummaConfig& cfg, bool verify);
RunReport run_summa(const SummaConfig& cfg, const RunOptions& opts);

/// Checksum-augmented SUMMA (matmul/abft.hpp): survives a single crashed
/// rank, whose tile is reconstructed by the survivors and assembled into C.
/// predicted_critical_recv is the exact *fault-free* prediction.
RunReport run_summa_abft(const SummaAbftConfig& cfg, bool verify);
RunReport run_summa_abft(const SummaAbftConfig& cfg, const RunOptions& opts);

/// Checksum-augmented Algorithm 1 (one crash per C fiber tolerated).
RunReport run_grid3d_abft(const Grid3dAbftConfig& cfg, bool verify);
RunReport run_grid3d_abft(const Grid3dAbftConfig& cfg, const RunOptions& opts);

/// Cannon on a g×g grid.
RunReport run_cannon(const CannonConfig& cfg, bool verify);
RunReport run_cannon(const CannonConfig& cfg, const RunOptions& opts);

/// The naive broadcast-everything baseline on P ranks.
RunReport run_naive_bcast(const NaiveBcastConfig& cfg, i64 nprocs, bool verify);
RunReport run_naive_bcast(const NaiveBcastConfig& cfg, i64 nprocs,
                          const RunOptions& opts);

/// The serial reference result for a shape, built from the same indexed
/// input pattern the distributed algorithms use.
MatrixD reference_result(const Shape& shape);

/// Reference for the integer-valued pattern (what the ABFT algorithms use).
MatrixD reference_result_int(const Shape& shape);

/// Check an assembled result under the given mode; returns the max residual
/// (abs error for kReference, normalized Freivalds residual otherwise).
double check_result(const Shape& shape, const MatrixD& assembled,
                    VerifyMode mode);

}  // namespace camb::mm
