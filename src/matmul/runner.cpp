#include "matmul/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <type_traits>

#include "collectives/shrink.hpp"
#include "matmul/freivalds.hpp"
#include "util/error.hpp"

namespace camb::mm {

namespace {

/// Shapes above this flop count use Freivalds under VerifyMode::kAuto.
constexpr i64 kReferenceFlopLimit = 1 << 26;  // ~67M multiply-adds

/// Run the callable with the scalar type selected by the options' dtype.
/// The one runtime → compile-time bridge: everything below it is templated.
template <typename F>
RunReport dispatch_dtype(DType d, F&& f) {
  switch (d) {
    case DType::kF64:
      return f(std::type_identity<double>{});
    case DType::kF32:
      return f(std::type_identity<float>{});
    case DType::kI64:
      return f(std::type_identity<i64>{});
    case DType::kKahan:
      return f(std::type_identity<kahan>{});
  }
  throw Error("unreachable dtype");
}

/// Machine construction + fault wiring for one run: the rank RNG seed, the
/// fault seed, and the crash seed all derive from the options' master seed
/// (independent domains), so a run is replayable from that one logged value.
void configure_machine(camb::Machine& machine, const RunOptions& opts) {
  machine.set_scheduler(opts.scheduler);
  if (opts.perturb.enabled() || opts.sdc.message_sdc()) {
    camb::FaultProfile profile = opts.perturb.enabled()
                                     ? fault_profile_from_spec(opts.perturb.profile)
                                     : camb::FaultProfile{};
    if (opts.sdc.message_sdc()) {
      // One CLI rate arms all three per-copy SDC events; a profile that
      // already injects them keeps the stronger setting.
      profile.drop_prob = std::max(profile.drop_prob, opts.sdc.message_rate);
      profile.flip_prob = std::max(profile.flip_prob, opts.sdc.message_rate);
      profile.dup_prob = std::max(profile.dup_prob, opts.sdc.message_rate);
    }
    machine.enable_faults(profile, opts.perturb.fault_seed(),
                          opts.sdc.sdc_seed(opts.perturb.master_seed));
  }
  if (opts.sdc.reliable) {
    machine.enable_reliable_transport(
        opts.sdc.sdc_seed(opts.perturb.master_seed));
  }
  if (opts.crash.enabled()) {
    machine.enable_crashes(opts.crash.ranks,
                           opts.crash.crash_seed(opts.perturb.master_seed),
                           opts.crash.max_send_position);
  }
  if (opts.collect_trace) machine.enable_trace();
}

/// Measurement half shared by every run_*: critical-path counters, phase
/// breakdown, simulated time, peak memory, the dtype annotation, and the
/// fault record.
RunReport report_from_machine(camb::Machine& machine, const RunOptions& opts) {
  const camb::CommStats& stats = machine.stats();
  RunReport report;
  report.dtype = opts.dtype;
  report.element_bytes = dtype_elem_bytes(opts.dtype);
  report.measured_critical_recv = stats.critical_path_received_words();
  report.measured_critical_sent = stats.critical_path_sent_words();
  report.total_network_words = stats.total_words_sent();
  for (int r = 0; r < stats.nprocs(); ++r) {
    const auto& totals = stats.rank_total(r);
    report.rank_recv_words.push_back(totals.words_received());
    report.rank_sent_words.push_back(totals.words_sent());
    report.rank_messages.push_back(totals.messages_sent);
    report.measured_critical_messages =
        std::max(report.measured_critical_messages, totals.messages_sent);
  }
  for (const auto& phase : stats.phases()) {
    report.phase_recv[phase] = stats.phase_critical_path_received_words(phase);
  }
  report.simulated_time = machine.critical_path_time();
  report.measured_peak_memory_words = machine.max_peak_memory_words();
  report.max_abs_error = std::numeric_limits<double>::quiet_NaN();
  report.faults.master_seed = opts.perturb.master_seed;
  report.faults.profile = opts.perturb.profile;
  if (camb::FaultPlan* plan = machine.fault_plan()) {
    const camb::FaultCounts counts = plan->counts();
    report.faults.enabled = true;
    report.faults.fault_seed = plan->seed();
    report.faults.injected_delays = counts.delayed_messages;
    report.faults.injected_failures = counts.failed_sends;
    report.faults.total_retries = counts.total_retries;
    report.faults.reordered_messages = counts.reordered_messages;
    report.faults.stragglers = counts.stragglers;
  }
  report.corruption.enabled = opts.sdc.enabled();
  if (opts.sdc.enabled()) {
    report.corruption.sdc_seed = opts.sdc.sdc_seed(opts.perturb.master_seed);
  }
  if (camb::FaultPlan* plan = machine.fault_plan()) {
    const camb::FaultCounts counts = plan->counts();
    report.corruption.sdc_seed = plan->sdc_seed();
    report.corruption.injected_drops = counts.dropped_copies;
    report.corruption.injected_flips = counts.corrupt_copies;
    report.corruption.injected_dups = counts.duplicated_messages;
  }
  const camb::TransportCounters transport = stats.transport_total();
  report.corruption.caught_at_transport = transport.corrupt_discards;
  report.corruption.retransmits = transport.retransmits;
  report.corruption.retransmitted_words =
      static_cast<double>(transport.retransmitted_bytes) / 8.0;
  report.corruption.acks = transport.acks;
  report.corruption.nacks = transport.nacks;
  report.corruption.dup_discards = transport.dup_discards;
  report.corruption.transport_debris =
      static_cast<i64>(machine.transport_debris().size());
  if (camb::Trace* trace = machine.trace()) {
    report.trace_events = trace->events();
  }
  if (machine.crash_plan() != nullptr) {
    report.recovery.enabled = true;
    report.recovery.crash_seed =
        opts.crash.crash_seed(opts.perturb.master_seed);
    report.recovery.planned = opts.crash.ranks;
  }
  const camb::CrashOutcome& outcome = machine.crash_outcome();
  report.recovery.crashed = outcome.crashed;
  report.recovery.abandoned = outcome.abandoned;
  report.recovery.detection_events =
      static_cast<i64>(outcome.detections.size());
  for (const camb::DetectionEvent& d : outcome.detections) {
    if (report.recovery.first_detection_clock == 0 ||
        d.clock < report.recovery.first_detection_clock) {
      report.recovery.first_detection_clock = d.clock;
    }
    report.recovery.last_detection_clock =
        std::max(report.recovery.last_detection_clock, d.clock);
  }
  for (const camb::UndeliveredMessage& d : outcome.debris) {
    ++report.recovery.debris_envelopes;
    report.recovery.debris_words += d.words();
  }
  for (int r = 0; r < stats.nprocs(); ++r) {
    report.recovery.heartbeat_probes +=
        stats.rank_phase(r, "heartbeat").messages_sent;
    const double rec = stats.rank_phase(r, "abft_shrink").words_received() +
                       stats.rank_phase(r, "abft_recover").words_received() +
                       stats.rank_phase(r, "heartbeat").words_received();
    report.recovery.recovery_recv_words =
        std::max(report.recovery.recovery_recv_words, rec);
    report.recovery.encode_recv_words =
        std::max(report.recovery.encode_recv_words,
                 stats.rank_phase(r, "abft_encode").words_received());
  }
  return report;
}

/// FNV-1a over the exact bit pattern of every entry, row-major, sizeof(T)
/// bytes per element: the "output bits" fingerprint pinned by the
/// equivalence sweep.  For double this hashes the same 8 bytes per entry as
/// the pre-dtype harness, so committed f64 golden hashes are unchanged.
template <typename T>
std::uint64_t hash_matrix(const Matrix<T>& m) {
  std::uint64_t h = 1469598103934665603ull;
  unsigned char bytes[sizeof(T)];
  for (i64 i = 0; i < m.rows(); ++i) {
    for (i64 j = 0; j < m.cols(); ++j) {
      const T v = m(i, j);
      std::memcpy(bytes, &v, sizeof(T));
      for (std::size_t b = 0; b < sizeof(T); ++b) {
        h ^= bytes[b];
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

/// Place a flat chunk of a row-major block into the global matrix, one
/// contiguous row run at a time.
template <typename T>
void place_chunk(Matrix<T>& global, const BlockChunk& chunk,
                 const std::vector<T>& data) {
  CAMB_CHECK(static_cast<i64>(data.size()) == chunk.flat_size);
  for (i64 f = 0; f < chunk.flat_size;) {
    const i64 flat = chunk.flat_start + f;
    const i64 j = flat % chunk.cols;
    const i64 run = std::min(chunk.cols - j, chunk.flat_size - f);
    std::copy(data.begin() + f, data.begin() + f + run,
              &global(chunk.row0 + flat / chunk.cols, chunk.col0 + j));
    f += run;
  }
}

RunOptions options_from(bool verify) {
  return RunOptions::verified(verify ? VerifyMode::kReference
                                     : VerifyMode::kNone);
}

}  // namespace

namespace {

void list_ranks(std::ostringstream& out, const std::vector<int>& ranks) {
  out << "[";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) out << ",";
    out << ranks[i];
  }
  out << "]";
}

}  // namespace

std::string RecoveryReport::summary() const {
  std::ostringstream out;
  out << "recovery{abft=" << (abft ? 1 : 0) << " crash_seed=" << crash_seed
      << " planned=";
  list_ranks(out, planned);
  out << " crashed=";
  list_ranks(out, crashed);
  out << " abandoned=";
  list_ranks(out, abandoned);
  out << " detections=" << detection_events << " detect_clock=["
      << first_detection_clock << "," << last_detection_clock
      << "] heartbeats=" << heartbeat_probes
      << " recovery_recv=" << recovery_recv_words
      << " encode_recv=" << encode_recv_words
      << " debris=" << debris_envelopes << "env/" << debris_words << "w"
      << " overhead_ratio=" << overhead_ratio << "}";
  return out.str();
}

std::string ResilienceReport::summary() const {
  std::ostringstream out;
  out << "resilience{interval=" << interval << " stride=" << buddy_stride
      << " spares=" << spares << " rounds=" << rounds
      << " final_epoch=" << final_epoch << " failed=";
  list_ranks(out, failed);
  out << " fresh=";
  list_ranks(out, fresh_logicals);
  out << " ckpt_recv=" << checkpoint_recv_words
      << " flood_recv=" << flood_recv_words
      << " restream_recv=" << restream_recv_words << "}";
  return out.str();
}

std::string FaultReport::summary() const {
  std::ostringstream out;
  out << "perturb{profile=" << profile << " master_seed=" << master_seed
      << " fault_seed=" << fault_seed << " delays=" << injected_delays
      << " failed_sends=" << injected_failures << " retries=" << total_retries
      << " reordered=" << reordered_messages << " stragglers=" << stragglers
      << "}";
  return out.str();
}

std::string CorruptionReport::summary() const {
  std::ostringstream out;
  out << "sdc{seed=" << sdc_seed << " injected=" << injected_drops << "drop/"
      << injected_flips << "flip/" << injected_dups << "dup/"
      << injected_mem_flips << "mem caught=" << caught_at_transport
      << " retransmits=" << retransmits << "(" << retransmitted_words
      << "w) acks=" << acks << " nacks=" << nacks
      << " dup_discards=" << dup_discards << " debris=" << transport_debris
      << " abft=" << detected_by_checksums << "det/" << corrected_by_abft
      << "fix escaped=" << escaped << "}";
  return out.str();
}

std::string ElasticReport::summary() const {
  std::ostringstream out;
  out << "elastic{rounds=" << rounds << " failed=";
  list_ranks(out, failed);
  out << " survivors=" << survivors << " active=" << active_ranks << " grid="
      << grid.p1 << "x" << grid.p2 << "x" << grid.p3
      << " migration_recv=" << migration_recv_words
      << " shrink_recv=" << shrink_recv_words
      << " exec_recv=" << exec_recv_words
      << " bound_at_pprime=" << bound_words_at_pprime
      << " overhead_vs_bound=" << overhead_vs_bound << "}";
  return out.str();
}

namespace {

template <typename T>
void fill_inputs(const Shape& shape, bool integer_inputs, Matrix<T>& a,
                 Matrix<T>& b) {
  a = Matrix<T>(shape.n1, shape.n2);
  b = Matrix<T>(shape.n2, shape.n3);
  if (integer_inputs) {
    a.fill_indexed_int(0, 0);
    b.fill_indexed_int(0, 0);
  } else {
    a.fill_indexed(0, 0);
    b.fill_indexed(0, 0);
  }
}

template <typename T>
double check_result_pattern(const Shape& shape, const Matrix<T>& assembled,
                            VerifyMode mode, bool integer_inputs) {
  if (mode == VerifyMode::kAuto) {
    mode = shape.flops() <= kReferenceFlopLimit ? VerifyMode::kReference
                                                : VerifyMode::kFreivalds;
  }
  switch (mode) {
    case VerifyMode::kNone:
      return std::numeric_limits<double>::quiet_NaN();
    case VerifyMode::kReference: {
      Matrix<T> a, b;
      fill_inputs<T>(shape, integer_inputs, a, b);
      return assembled.max_abs_diff(camb::matmul_reference(a, b));
    }
    case VerifyMode::kFreivalds: {
      Rng rng(0xF4E1);
      return freivalds_residual(
          indexed_rows<T>(shape.n1, shape.n2, integer_inputs),
          indexed_rows<T>(shape.n2, shape.n3, integer_inputs),
          matrix_rows(assembled), /*trials=*/24, rng);
    }
    case VerifyMode::kAuto:
      break;
  }
  throw Error("unreachable verify mode");
}

/// Fingerprint and check an assembled C.  The hash runs on a thread of its
/// own while the checker runs on the worker pool.
template <typename T>
void verify_assembled(const Shape& shape, const Matrix<T>& c, VerifyMode mode,
                      bool integer_inputs, RunReport& report) {
  auto hash =
      std::async(std::launch::async, [&c] { return hash_matrix<T>(c); });
  report.max_abs_error =
      check_result_pattern<T>(shape, c, mode, integer_inputs);
  report.output_hash = hash.get();
  report.verified = true;
}

/// The inputs the ABFT algorithms fill: exact scalars use the plain indexed
/// pattern (native integer arithmetic never rounds), rounded scalars the
/// integer-valued pattern (exactness through smallness) — matching
/// abft_fill in matmul/abft.cpp.
template <typename T>
constexpr bool abft_integer_inputs() {
  return !ScalarTraits<T>::exact;
}

}  // namespace

MatrixD reference_result(const Shape& shape) {
  MatrixD a(shape.n1, shape.n2), b(shape.n2, shape.n3);
  a.fill_indexed(0, 0);
  b.fill_indexed(0, 0);
  return camb::matmul_reference(a, b);
}

MatrixD reference_result_int(const Shape& shape) {
  MatrixD a(shape.n1, shape.n2), b(shape.n2, shape.n3);
  a.fill_indexed_int(0, 0);
  b.fill_indexed_int(0, 0);
  return camb::matmul_reference(a, b);
}

double check_result(const Shape& shape, const MatrixD& assembled,
                    VerifyMode mode) {
  return check_result_pattern<double>(shape, assembled, mode,
                                      /*integer_inputs=*/false);
}

namespace {

bool contains(const std::vector<int>& ranks, int r) {
  return std::find(ranks.begin(), ranks.end(), r) != ranks.end();
}

/// How a run recovers from crashes: the composition check's verdict.
enum class Discipline { kPlain, kCheckpoint, kElastic };

/// The feature-composition rules, in one place, and the only reader of the
/// checkpoint and elastic switches.  Elastic shrink-and-regrid needs an
/// algorithm with an elastic re-plan and is a recovery discipline of its
/// own, rival to checkpoint/rollback; memory SDC needs a checksum correction
/// path and a run that corrects instead of re-executing.  Throws for a
/// combination the algorithm cannot honour, before any machine is built.
Discipline check_composition(const RunOptions& opts, const std::string& algo,
                             bool abft, bool elastic_capable) {
  const bool checkpoint = opts.checkpoint.enabled();
  const bool elastic = opts.elastic.enabled;
  const bool mem_sdc = opts.sdc.mem_rate > 0;
  if (elastic && !elastic_capable) {
    throw Error(algo +
                ": elastic shrink-and-regrid needs an algorithm with an "
                "elastic re-plan (summa, grid3d, alg25d); " +
                algo + " has none");
  }
  if (elastic &&
      (opts.elastic.max_failures < 0 || opts.elastic.max_failures > 30)) {
    throw Error(algo + ": elastic max_failures must be in [0, 30] (the "
                       "recovery tag space holds 31 bands)");
  }
  if (elastic && checkpoint) {
    throw Error(algo +
                ": elastic shrink-and-regrid does not compose with "
                "checkpoint/rollback — rollback re-executes on the old grid, "
                "elastic re-plans it; pick one recovery discipline");
  }
  if (elastic && mem_sdc) {
    throw Error(algo +
                ": memory-SDC injection (--sdc-mem-rate) requires a "
                "checksum-augmented algorithm; the elastic twins recover by "
                "re-execution, not correction");
  }
  if (!abft && mem_sdc) {
    throw Error("memory-SDC injection (--sdc-mem-rate) requires a "
                "checksum-augmented (ABFT) algorithm; " +
                algo + " has no correction path");
  }
  if (checkpoint && mem_sdc) {
    throw Error("memory-SDC injection (--sdc-mem-rate) does not compose with "
                "checkpoint/rollback: rollback re-executes instead of "
                "correcting, so the checksum repair path is never exercised");
  }
  return checkpoint ? Discipline::kCheckpoint
         : elastic  ? Discipline::kElastic
                    : Discipline::kPlain;
}

/// Commit tax of a clean checkpointed run for logical rank L: at each
/// committed epoch, L receives its ward's snapshot wire.  Zero when the
/// buddy ring degenerates to self (stride ≡ 0 mod P): self-sends are free.
i64 ckpt_commit_tax(int P, const CheckpointConfig& ck, i64 steps, int logical,
                    const std::function<i64(int, i64)>& snapshot_words) {
  const int stride = ((ck.buddy_stride % P) + P) % P;
  if (stride == 0) return 0;
  const int ward = camb::ckpt_ward(logical, P, ck.buddy_stride);
  i64 tax = 0;
  for (i64 step = ck.interval; step <= steps; step += ck.interval) {
    tax += snapshot_words(ward, step);
  }
  return tax;
}

/// Resilience record + prediction for a checkpointed run.  Clean runs have
/// an exact closed form (per-logical base words + commit tax + agreement
/// flood, with idle spares paying only the flood); once a crash fires the
/// word count depends on where in the schedule the rank died, so the
/// prediction is withheld (−1) and the tests pin bit-identity and the
/// per-phase recovery words instead.
void fill_resilience_report(RunReport& report, camb::Machine& machine,
                            const RunOptions& opts,
                            const std::vector<ckpt::RunLog>& logs, int P,
                            i64 steps,
                            const std::function<i64(int)>& base_pred,
                            const std::function<i64(int, i64)>& snapshot_words) {
  const CheckpointConfig& ck = opts.checkpoint;
  const int T = P + ck.spares;
  ResilienceReport& res = report.resilience;
  res.enabled = true;
  res.interval = ck.interval;
  res.buddy_stride = ck.buddy_stride;
  res.spares = ck.spares;
  // The longest log belongs to a rank that saw every round through.
  for (const ckpt::RunLog& log : logs) {
    if (log.size() > res.log.size()) res.log = log;
  }
  res.rounds = static_cast<int>(res.log.size());
  for (const ckpt::RoundRecord& rec : res.log) {
    // The DONE record carries no epoch; the agreed rollback target lives in
    // the rollback records, and the last one is what the winning execution
    // round resumed from.
    if (!rec.done) res.final_epoch = rec.epoch;
    for (int f : rec.failed) {
      if (!contains(res.failed, f)) res.failed.push_back(f);
    }
    for (int l : rec.fresh) {
      if (!contains(res.fresh_logicals, l)) res.fresh_logicals.push_back(l);
    }
  }
  const camb::CommStats& stats = machine.stats();
  for (int r = 0; r < stats.nprocs(); ++r) {
    res.checkpoint_recv_words =
        std::max(res.checkpoint_recv_words,
                 stats.rank_phase(r, ckpt::kPhaseCheckpoint).words_received());
    res.flood_recv_words =
        std::max(res.flood_recv_words,
                 stats.rank_phase(r, ckpt::kPhaseCkptShrink).words_received());
    res.restream_recv_words =
        std::max(res.restream_recv_words,
                 stats.rank_phase(r, ckpt::kPhaseCkptRollback).words_received());
  }
  if (machine.crash_outcome().any_crashed()) {
    report.predicted_critical_recv = -1;
  } else {
    // Split prediction: the algorithm + commit-tax words are dtype-scaled
    // data (elements), while the agreement flood is fixed 8-byte control
    // traffic.  The flood is uniform across every physical rank (idle
    // spares included), so the split commutes with the max.
    i64 worst = 0;
    for (int L = 0; L < P; ++L) {
      worst = std::max(
          worst, base_pred(L) + ckpt_commit_tax(P, ck, steps, L, snapshot_words));
    }
    report.predicted_critical_recv = worst;
    report.predicted_control_words +=
        ckpt::ckpt_flood_recv_words_exact(T, ck.spares);
  }
}

/// Flip one low bit of the integer value at a seeded position of `data`
/// when rank `rank`'s memory-SDC coin lands.  The draw chain is a pure
/// function of (mem_seed, rank), so a corruption scenario replays from the
/// logged seed alone.  ABFT tiles are integer-valued in every dtype (small
/// enough to be exact in f32 and represented natively in i64), and the flip
/// keeps them integer-valued, so every later checksum subtraction stays
/// exact — which is what makes the repair bit-exact.
template <typename T>
bool maybe_flip_entry(std::uint64_t mem_seed, int rank, double rate,
                      std::span<T> data) {
  Rng rng(mem_seed, static_cast<std::uint64_t>(rank));
  if (rng.uniform() >= rate || data.empty()) return false;
  const auto idx = static_cast<std::size_t>(rng.below(data.size()));
  const int bit = static_cast<int>(rng.below(16));
  const i64 value =
      static_cast<i64>(std::llround(ScalarTraits<T>::to_double(data[idx])));
  const i64 flipped = value ^ (i64{1} << bit);
  if constexpr (std::is_same_v<T, i64>) {
    data[idx] = flipped;
  } else {
    data[idx] = static_cast<T>(static_cast<double>(flipped));
  }
  return true;
}

/// The Theorem 3 bound for (shape, P), scaled into the run's words: the
/// theory counts elements, the machine counts 8-byte words.
double lower_bound_for(const Shape& shape, i64 nprocs,
                       const RunOptions& opts) {
  return camb::core::memory_independent_bound(shape,
                                              static_cast<double>(nprocs))
             .words *
         dtype_width_words(opts.dtype);
}

/// The elastic face of an elastic-capable algorithm: the driver of
/// matmul/elastic.hpp around its body on one rank, the closed-form
/// prediction for an agreed failed set, and the inputs the run fills.
template <typename Output>
struct ElasticSpec {
  bool integer_inputs = false;
  std::function<ElasticRankOutputT<Output>(RankCtx&)> rank;
  std::function<ElasticPrediction(const std::vector<int>& failed, int nprocs,
                                  double width_words)>
      predict;
};

/// Binds an elastic-capable algorithm's config and `body(session, config)`
/// into its ElasticSpec.  The one place that forces integer-valued inputs
/// for rounded scalars: sums become exact and order-independent, so
/// attempt-0 tiles and any new-grid tiles agree bit for bit (the mixed
/// retire/recover case depends on this).
template <typename T, typename Config, typename Body>
auto elastic_spec(Config cfg, const ElasticConfig& ecfg, Body body) {
  if constexpr (!ScalarTraits<T>::exact) cfg.integer_inputs = true;
  using Output =
      decltype(body(std::declval<ckpt::PlainSessionT<T>&>(), cfg));
  return ElasticSpec<Output>{
      .integer_inputs = cfg.integer_inputs,
      .rank = [cfg, ecfg, body](RankCtx& ctx) {
        return elastic_rank<T>(ctx, cfg, ecfg, body);
      },
      .predict = [cfg, ecfg](const std::vector<int>& failed, int nprocs,
                             double width_words) {
        return elastic_prediction(cfg, ecfg, failed, nprocs, width_words);
      }};
}

/// What the one runner needs to know about an algorithm besides its body.
template <typename T, typename Output>
struct AlgorithmSpec {
  std::string name;  ///< as named in composition errors
  Shape shape;
  int nprocs = 0;
  /// Exact received elements of (logical) rank r on a fault-free run.
  std::function<i64(int)> predict;
  /// Control words on every rank's fault-free critical path of a plain run
  /// (the ABFT shrink agreement: fixed 8-byte mask payloads).
  i64 control_words = 0;
  /// Boundary steps the body announces, and the wire elements of logical
  /// rank L's snapshot at boundary `step` (the checkpoint commit tax).
  i64 steps = 0;
  std::function<i64(int, i64)> snapshot_words;
  /// Inputs use the integer-valued pattern (what the check regenerates).
  bool integer_inputs = false;
  /// Checksum-augmented algorithms only: the output tile a memory-SDC flip
  /// lands in, and the single-error correction pass over every output.
  std::function<std::span<T>(Output&)> tile = {};
  std::function<AbftCorrection(std::vector<Output>&)> correct = {};
  /// Place one rank's output into the assembled C.
  std::function<void(Matrix<T>&, const Output&)> place;
  /// Elastic-capable algorithms only (summa, grid3d, alg25d).
  std::optional<ElasticSpec<Output>> elastic = {};

  bool abft() const { return static_cast<bool>(correct); }
};

/// Elastic record + prediction: the agreed outcome lives in the
/// deepest-recovering survivor (a rank that retired after a clean attempt 0
/// reports rounds = 0 even when its peers went on to shrink without it), and
/// the zero-tolerance prediction is the one for that agreed failed set —
/// base words when clean, base-at-P′ + shrink flood + migration tax when
/// crashed.
template <typename Output>
void fill_elastic_report(RunReport& report, camb::Machine& machine,
                         const RunOptions& opts, const Shape& shape,
                         const std::vector<ElasticRankOutputT<Output>>& outs,
                         const ElasticSpec<Output>& spec) {
  const int P = static_cast<int>(outs.size());
  const std::vector<int>& crashed = machine.crash_outcome().crashed;
  const ElasticRankOutputT<Output>* view = nullptr;
  for (int r = 0; r < P; ++r) {
    if (contains(crashed, r)) continue;
    const ElasticRankOutputT<Output>& out = outs[static_cast<std::size_t>(r)];
    if (view == nullptr || out.rounds > view->rounds) view = &out;
  }
  if (view == nullptr) {
    throw Error("elastic: every rank crashed; nothing to report");
  }
  ElasticReport& e = report.elastic;
  e.enabled = true;
  e.rounds = view->rounds;
  e.failed = view->failed;
  e.survivors = view->survivors;
  e.active_ranks = view->active_ranks;
  e.grid = view->final_grid;

  const camb::CommStats& stats = machine.stats();
  for (int r = 0; r < P; ++r) {
    const double regrid_w =
        stats.rank_phase(r, coll::kPhaseElasticRegrid).words_received();
    const double shrink_w =
        stats.rank_phase(r, kPhaseElasticShrink).words_received();
    e.migration_recv_words = std::max(e.migration_recv_words, regrid_w);
    e.shrink_recv_words = std::max(e.shrink_recv_words, shrink_w);
    e.exec_recv_words =
        std::max(e.exec_recv_words,
                 stats.rank_total(r).words_received() - regrid_w - shrink_w);
  }
  e.bound_words_at_pprime = lower_bound_for(shape, e.active_ranks, opts);
  if (e.bound_words_at_pprime > 0) {
    e.overhead_vs_bound = e.exec_recv_words / e.bound_words_at_pprime;
  }

  // Split data elements (dtype-scaled) from the shrink control words (fixed
  // f64 mask payloads) the way predicted_words() recombines them; the split
  // commutes with the max because the control words are uniform over
  // survivors and the failed receive nothing.
  const double width = dtype_width_words(opts.dtype);
  const ElasticPrediction pred = spec.predict(view->failed, P, width);
  i64 max_elems = 0;
  for (int r = 0; r < P; ++r) {
    const auto s = static_cast<std::size_t>(r);
    const double data_words =
        pred.rank_migration_words[s] + pred.rank_exec_words[s];
    max_elems = std::max(max_elems,
                         static_cast<i64>(std::llround(data_words / width)));
  }
  report.predicted_critical_recv = max_elems;
  report.predicted_control_words =
      static_cast<i64>(std::llround(pred.shrink_words));
}

/// The one runner: builds the machine (with spares when checkpointing), runs
/// `body` under the matching session — body(ckpt::PlainSessionT<T>&), inside
/// the rollback round loop body(ckpt::SessionT<T>&), or through the elastic
/// driver — measures, predicts (max over ranks, plus the commit tax and
/// agreement flood when checkpointing; the failed-set closed form when
/// elastic), runs the ABFT correction pass, then assembles and verifies C.
template <typename T, typename Output, typename Body>
RunReport run_algorithm(const AlgorithmSpec<T, Output>& spec,
                        const RunOptions& opts, Body&& body) {
  const Discipline discipline = check_composition(
      opts, spec.name, spec.abft(), spec.elastic.has_value());
  const bool checkpoint = discipline == Discipline::kCheckpoint;
  const int P = spec.nprocs;
  const CheckpointConfig& ck = opts.checkpoint;
  camb::Machine machine(P + (checkpoint ? ck.spares : 0),
                        opts.perturb.machine_seed());
  configure_machine(machine, opts);
  std::vector<Output> outputs(static_cast<std::size_t>(P));
  std::vector<ckpt::RunLog> logs;
  std::vector<ElasticRankOutputT<Output>> elastic_outs;
  if (checkpoint) {
    // P + spares physical ranks each drive the rollback round loop; the
    // per-logical outputs are collected under a mutex (re-executions
    // overwrite bit-identical values).
    const ckpt::ResilientConfig rcfg{P, ck.spares, ck.interval,
                                     ck.buddy_stride};
    std::vector<std::optional<Output>> results(static_cast<std::size_t>(P));
    std::mutex results_mu;
    logs.assign(static_cast<std::size_t>(P + ck.spares), {});
    machine.run([&](camb::RankCtx& ctx) {
      ckpt::run_resilient<T, Output>(
          ctx, rcfg, body, &results, &results_mu,
          &logs[static_cast<std::size_t>(ctx.rank())]);
    });
    for (int L = 0; L < P; ++L) {
      std::optional<Output>& result = results[static_cast<std::size_t>(L)];
      CAMB_CHECK_MSG(result.has_value(),
                     "checkpointed run ended without an output for a logical "
                     "rank");
      outputs[static_cast<std::size_t>(L)] = std::move(*result);
    }
  } else if (discipline == Discipline::kElastic) {
    // Every rank keeps its tile of the grid it finished on (retiree
    // attempt-0 tiles and recovery-round tiles overlap bit-identically, so
    // placement order does not matter); idle survivors place nothing.
    elastic_outs.resize(static_cast<std::size_t>(P));
    machine.run([&](camb::RankCtx& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      elastic_outs[r] = spec.elastic->rank(ctx);
      if (elastic_outs[r].output) {
        outputs[r] = std::move(*elastic_outs[r].output);
      }
    });
  } else {
    machine.run([&](camb::RankCtx& ctx) {
      ckpt::PlainSessionT<T> session(ctx);
      outputs[static_cast<std::size_t>(ctx.rank())] = body(session);
    });
  }

  RunReport report = report_from_machine(machine, opts);
  report.lower_bound_words = lower_bound_for(spec.shape, P, opts);
  if (checkpoint) {
    fill_resilience_report(report, machine, opts, logs, P, spec.steps,
                           spec.predict, spec.snapshot_words);
  } else if (discipline == Discipline::kElastic) {
    fill_elastic_report(report, machine, opts, spec.shape, elastic_outs,
                        *spec.elastic);
  } else {
    // Data elements (dtype-scaled) and control words (fixed, identical on
    // every rank — so the split commutes with the max).
    i64 predicted = 0;
    for (int r = 0; r < P; ++r) {
      predicted = std::max(predicted, spec.predict(r));
    }
    report.predicted_critical_recv = predicted;
    report.predicted_control_words = spec.control_words;
  }

  const std::vector<int>& crashed = machine.crash_outcome().crashed;
  if (spec.abft()) {
    report.recovery.abft = true;
    if (report.lower_bound_words > 0) {
      report.recovery.overhead_ratio =
          report.measured_critical_recv / report.lower_bound_words;
    }
    // The correction pass also runs under message-only SDC: a clean
    // syndrome set is the proof that the transport let nothing through.
    if (!checkpoint && opts.sdc.enabled() && crashed.empty()) {
      const std::uint64_t mem_seed =
          opts.sdc.mem_seed(opts.perturb.master_seed);
      i64 mem_flips = 0;
      for (int r = 0; r < P && opts.sdc.mem_rate > 0; ++r) {
        Output& out = outputs[static_cast<std::size_t>(r)];
        if (maybe_flip_entry<T>(mem_seed, r, opts.sdc.mem_rate,
                                spec.tile(out))) {
          ++mem_flips;
        }
      }
      const AbftCorrection corr = spec.correct(outputs);
      report.corruption.injected_mem_flips = mem_flips;
      report.corruption.detected_by_checksums = corr.detected;
      report.corruption.corrected_by_abft = corr.corrected;
      report.corruption.escaped = corr.uncorrected;
      for (int r : corr.corrected_ranks) {
        machine.stats().transport_mut(r).corrections += 1;
      }
    }
  }

  if (opts.verify != VerifyMode::kNone) {
    Matrix<T> c(spec.shape.n1, spec.shape.n3);
    for (int r = 0; r < P; ++r) {
      // A crashed rank of a plain or elastic run left no output;
      // checkpointed outputs are indexed by logical rank and all present.
      if (!checkpoint && contains(crashed, r)) continue;
      spec.place(c, outputs[static_cast<std::size_t>(r)]);
    }
    verify_assembled<T>(spec.shape, c, opts.verify,
                        discipline == Discipline::kElastic
                            ? spec.elastic->integer_inputs
                            : spec.integer_inputs,
                        report);
  }
  return report;
}

template <typename T>
void place_block(Matrix<T>& c, const Block2DOutputT<T>& out) {
  c.set_block(out.row0, out.col0, out.block);
}

template <typename T>
void place_grid3d(Matrix<T>& c, const Grid3dRankOutputT<T>& out) {
  place_chunk<T>(c, out.c_chunk, out.c_data);
}

}  // namespace

RunReport run_grid3d(const Grid3dConfig& cfg, const RunOptions& opts) {
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    const auto body = [](auto& session, const Grid3dConfig& c) {
      return grid3d_body<T>(session, c);
    };
    return run_algorithm(
        AlgorithmSpec<T, Grid3dRankOutputT<T>>{
            .name = "grid3d",
            .shape = cfg.shape,
            .nprocs = static_cast<int>(cfg.grid.total()),
            .predict =
                [&](int r) { return grid3d_predicted_recv_words(cfg, r); },
            .steps = grid3d_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return grid3d_ckpt_snapshot_words(cfg, L, step);
                },
            .integer_inputs = cfg.integer_inputs,
            .place = place_grid3d<T>,
            .elastic = elastic_spec<T>(cfg, opts.elastic, body)},
        opts, [&](auto& session) { return body(session, cfg); });
  });
}

RunReport run_grid3d(const Grid3dConfig& cfg, VerifyMode mode) {
  return run_grid3d(cfg, RunOptions::verified(mode));
}

RunReport run_grid3d(const Grid3dConfig& cfg, bool verify) {
  return run_grid3d(cfg, options_from(verify));
}

RunReport run_grid3d_staged(const Grid3dStagedConfig& cfg,
                            const RunOptions& opts) {
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    return run_algorithm(
        AlgorithmSpec<T, Grid3dStagedRankOutputT<T>>{
            .name = "grid3d_staged",
            .shape = cfg.shape,
            .nprocs = static_cast<int>(cfg.grid.total()),
            .predict =
                [&](int r) {
                  return grid3d_staged_predicted_recv_words(cfg, r);
                },
            .steps = grid3d_staged_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return grid3d_staged_ckpt_snapshot_words(cfg, L, step);
                },
            .place =
                [](Matrix<T>& c, const Grid3dStagedRankOutputT<T>& out) {
                  for (std::size_t s = 0; s < out.c_chunks.size(); ++s) {
                    place_chunk<T>(c, out.c_chunks[s], out.c_data[s]);
                  }
                }},
        opts,
        [&](auto& session) { return grid3d_staged_body<T>(session, cfg); });
  });
}

RunReport run_grid3d_staged(const Grid3dStagedConfig& cfg, bool verify) {
  return run_grid3d_staged(cfg, options_from(verify));
}

RunReport run_grid3d_agarwal(const Grid3dAgarwalConfig& cfg,
                             const RunOptions& opts) {
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    return run_algorithm(
        AlgorithmSpec<T, Grid3dRankOutputT<T>>{
            .name = "grid3d_agarwal",
            .shape = cfg.shape,
            .nprocs = static_cast<int>(cfg.grid.total()),
            .predict =
                [&](int r) {
                  return grid3d_agarwal_predicted_recv_words(cfg, r);
                },
            .steps = grid3d_agarwal_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return grid3d_agarwal_ckpt_snapshot_words(cfg, L, step);
                },
            .place = place_grid3d<T>},
        opts,
        [&](auto& session) { return grid3d_agarwal_body<T>(session, cfg); });
  });
}

RunReport run_grid3d_agarwal(const Grid3dAgarwalConfig& cfg, bool verify) {
  return run_grid3d_agarwal(cfg, options_from(verify));
}

RunReport run_carma(const CarmaConfig& cfg, const RunOptions& opts) {
  const std::vector<i64> predicted = carma_predicted_recv_words(cfg);
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    return run_algorithm(
        AlgorithmSpec<T, CarmaRankOutputT<T>>{
            .name = "carma",
            .shape = cfg.shape,
            .nprocs = 1 << cfg.levels,
            .predict =
                [&](int r) { return predicted[static_cast<std::size_t>(r)]; },
            .steps = carma_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return carma_ckpt_snapshot_words(cfg, L, step);
                },
            .place =
                [](Matrix<T>& c, const CarmaRankOutputT<T>& out) {
                  place_chunk<T>(c, out.holding, out.data);
                }},
        opts, [&](auto& session) { return carma_body<T>(session, cfg); });
  });
}

RunReport run_carma(const CarmaConfig& cfg, bool verify) {
  return run_carma(cfg, options_from(verify));
}

RunReport run_alg25d(const Alg25dConfig& cfg, const RunOptions& opts) {
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    const auto body = [](auto& session, const Alg25dConfig& c) {
      return alg25d_body<T>(session, c);
    };
    return run_algorithm(
        AlgorithmSpec<T, Block2DOutputT<T>>{
            .name = "alg25d",
            .shape = cfg.shape,
            .nprocs = static_cast<int>(cfg.g * cfg.g * cfg.c),
            .predict =
                [&](int r) { return alg25d_predicted_recv_words(cfg, r); },
            .steps = alg25d_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return alg25d_ckpt_snapshot_words(cfg, L, step);
                },
            .integer_inputs = cfg.integer_inputs,
            .place = place_block<T>,
            .elastic = elastic_spec<T>(cfg, opts.elastic, body)},
        opts, [&](auto& session) { return body(session, cfg); });
  });
}

RunReport run_alg25d(const Alg25dConfig& cfg, bool verify) {
  return run_alg25d(cfg, options_from(verify));
}

RunReport run_summa(const SummaConfig& cfg, const RunOptions& opts) {
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    const auto body = [](auto& session, const SummaConfig& c) {
      return summa_body<T>(session, c);
    };
    return run_algorithm(
        AlgorithmSpec<T, Block2DOutputT<T>>{
            .name = "summa",
            .shape = cfg.shape,
            .nprocs = static_cast<int>(cfg.g * cfg.g),
            .predict =
                [&](int r) { return summa_predicted_recv_words(cfg, r); },
            .steps = summa_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return summa_ckpt_snapshot_words(cfg, L, step);
                },
            .integer_inputs = cfg.integer_inputs,
            .place = place_block<T>,
            .elastic = elastic_spec<T>(cfg, opts.elastic, body)},
        opts, [&](auto& session) { return body(session, cfg); });
  });
}

RunReport run_summa(const SummaConfig& cfg, bool verify) {
  return run_summa(cfg, options_from(verify));
}

RunReport run_summa_abft(const SummaAbftConfig& cfg, const RunOptions& opts) {
  const int P = static_cast<int>(cfg.base.g * cfg.base.g);
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    return run_algorithm(
        AlgorithmSpec<T, SummaAbftOutputT<T>>{
            .name = "summa_abft",
            .shape = cfg.base.shape,
            .nprocs = P,
            .predict =
                [&](int r) { return summa_abft_ckpt_base_recv_words(cfg, r); },
            .control_words = coll::shrink_recv_words_exact(P, cfg.max_failures),
            .steps = summa_abft_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return summa_abft_ckpt_snapshot_words(cfg, L, step);
                },
            .integer_inputs = abft_integer_inputs<T>(),
            .tile =
                [](SummaAbftOutputT<T>& out) {
                  return std::span<T>(out.own.block.data(),
                                      static_cast<std::size_t>(
                                          out.own.block.size()));
                },
            .correct =
                [&](std::vector<SummaAbftOutputT<T>>& outputs) {
                  return summa_abft_correct<T>(cfg, outputs);
                },
            .place =
                [](Matrix<T>& c, const SummaAbftOutputT<T>& out) {
                  place_block<T>(c, out.own);
                  for (const RecoveredBlock2DT<T>& rec : out.recovered) {
                    place_block<T>(c, rec.out);
                  }
                }},
        opts, [&](auto& session) { return summa_abft_body<T>(session, cfg); });
  });
}

RunReport run_summa_abft(const SummaAbftConfig& cfg, bool verify) {
  return run_summa_abft(cfg, options_from(verify));
}

RunReport run_grid3d_abft(const Grid3dAbftConfig& cfg,
                          const RunOptions& opts) {
  const int P = static_cast<int>(cfg.base.grid.total());
  const Shape& shape = cfg.base.shape;
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    return run_algorithm(
        AlgorithmSpec<T, Grid3dAbftOutputT<T>>{
            .name = "grid3d_abft",
            .shape = shape,
            .nprocs = P,
            .predict =
                [&](int r) { return grid3d_abft_ckpt_base_recv_words(cfg, r); },
            .control_words = coll::shrink_recv_words_exact(P, cfg.max_failures),
            .steps = grid3d_abft_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return grid3d_abft_ckpt_snapshot_words(cfg, L, step);
                },
            .integer_inputs = abft_integer_inputs<T>(),
            .tile = [](Grid3dAbftOutputT<T>& out) {
              return std::span<T>(out.own.c_data);
            },
            .correct =
                [&](std::vector<Grid3dAbftOutputT<T>>& outputs) {
                  // The parity syndrome localizes the corrupted element but
                  // not which fiber member holds it; one exact reference dot
                  // product per candidate disambiguates.  The dot product is
                  // exact in every dtype: the inputs are integer-valued
                  // (natively for exact scalars, by the smallness of the
                  // integer pattern otherwise).
                  Matrix<T> a, b;
                  fill_inputs<T>(shape, abft_integer_inputs<T>(), a, b);
                  return grid3d_abft_correct<T>(
                      cfg, outputs, [&](i64 row, i64 col) {
                        T acc = ScalarTraits<T>::zero();
                        for (i64 k = 0; k < shape.n2; ++k) {
                          acc += a(row, k) * b(k, col);
                        }
                        return acc;
                      });
                },
            .place =
                [](Matrix<T>& c, const Grid3dAbftOutputT<T>& out) {
                  place_grid3d<T>(c, out.own);
                  for (const RecoveredChunk3DT<T>& rec : out.recovered) {
                    place_chunk<T>(c, rec.c_chunk, rec.c_data);
                  }
                }},
        opts, [&](auto& session) { return grid3d_abft_body<T>(session, cfg); });
  });
}

RunReport run_grid3d_abft(const Grid3dAbftConfig& cfg, bool verify) {
  return run_grid3d_abft(cfg, options_from(verify));
}

RunReport run_cannon(const CannonConfig& cfg, const RunOptions& opts) {
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    return run_algorithm(
        AlgorithmSpec<T, Block2DOutputT<T>>{
            .name = "cannon",
            .shape = cfg.shape,
            .nprocs = static_cast<int>(cfg.g * cfg.g),
            .predict =
                [&](int r) { return cannon_predicted_recv_words(cfg, r); },
            .steps = cannon_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return cannon_ckpt_snapshot_words(cfg, L, step);
                },
            .place = place_block<T>},
        opts, [&](auto& session) { return cannon_body<T>(session, cfg); });
  });
}

RunReport run_cannon(const CannonConfig& cfg, bool verify) {
  return run_cannon(cfg, options_from(verify));
}

RunReport run_naive_bcast(const NaiveBcastConfig& cfg, i64 nprocs,
                          const RunOptions& opts) {
  const int P = static_cast<int>(nprocs);
  return dispatch_dtype(opts.dtype, [&]<typename T>(std::type_identity<T>) {
    return run_algorithm(
        AlgorithmSpec<T, Block2DOutputT<T>>{
            .name = "naive_bcast",
            .shape = cfg.shape,
            .nprocs = P,
            .predict =
                [&](int r) {
                  return naive_bcast_predicted_recv_words(cfg, r, P);
                },
            .steps = naive_bcast_ckpt_steps(cfg),
            .snapshot_words =
                [&](int L, i64 step) {
                  return naive_bcast_ckpt_snapshot_words(cfg, L, P, step);
                },
            .place = place_block<T>},
        opts,
        [&](auto& session) { return naive_bcast_body<T>(session, cfg); });
  });
}

RunReport run_naive_bcast(const NaiveBcastConfig& cfg, i64 nprocs,
                          bool verify) {
  return run_naive_bcast(cfg, nprocs, options_from(verify));
}

}  // namespace camb::mm
