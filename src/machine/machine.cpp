#include "machine/machine.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <sstream>

#include "machine/worker_pool.hpp"
#include "util/error.hpp"

namespace camb {

RankCtx::RankCtx(Machine& machine, int rank)
    : machine_(machine), rank_(rank),
      rng_(machine.seed(), static_cast<std::uint64_t>(rank)) {
  if (FaultPlan* plan = machine.fault_plan()) {
    straggler_ = plan->straggler_factor(rank);
  }
}

int RankCtx::nprocs() const { return machine_.nprocs(); }

void RankCtx::send(int dst, int tag, Buffer payload) {
  clock_ = machine_.network().send_timed(rank_, dst, tag, std::move(payload),
                                         clock_, machine_.time_params());
  // Chaos-mode fuzz hook (no-op otherwise): yield after every communication
  // call so seeded schedules explore interleavings that natural blocking
  // points would never produce.
  Fiber::maybe_preempt();
}

Buffer RankCtx::recv(int src, int tag) {
  double arrival = 0.0;
  Buffer payload;
  const RecvStatus status = machine_.network().recv_or_failed(
      rank_, src, tag, std::numeric_limits<double>::infinity(), &payload,
      &arrival);
  if (status == RecvStatus::kDelivered) {
    if (src != rank_) clock_ = std::max(clock_, arrival);
    Fiber::maybe_preempt();
    return payload;
  }
  const bool crashed = (status == RecvStatus::kSrcDead);
  machine_.note_detection(DetectionEvent{rank_, src, tag, clock_, crashed});
  throw PeerFailedError(src, rank_, tag, crashed);
}

std::optional<Buffer> RankCtx::recv_timed(int src, int tag, double deadline,
                                          RecvStatus* status) {
  double arrival = 0.0;
  Buffer payload;
  const RecvStatus st =
      machine_.network().recv_or_failed(rank_, src, tag, deadline, &payload,
                                        &arrival);
  if (status != nullptr) *status = st;
  switch (st) {
    case RecvStatus::kDelivered:
      if (src != rank_) clock_ = std::max(clock_, arrival);
      Fiber::maybe_preempt();
      return std::optional<Buffer>(std::move(payload));
    case RecvStatus::kTimedOut:
      // The receiver waited out its deadline; the matching message is still
      // "in flight" past it.
      clock_ = std::max(clock_, deadline);
      return std::nullopt;
    case RecvStatus::kSrcDead:
    case RecvStatus::kSrcDeviated:
      machine_.note_detection(DetectionEvent{
          rank_, src, tag, clock_, st == RecvStatus::kSrcDead});
      return std::nullopt;
  }
  return std::nullopt;
}

void RankCtx::abandon() {
  machine_.network().mark_rank_deviated(rank_);
  machine_.note_abandon(rank_);
}

void RankCtx::abandon_below(int tag_limit) {
  machine_.network().mark_rank_deviated(rank_, tag_limit);
  machine_.note_abandon(rank_);
}

Buffer RankCtx::sendrecv(int peer, int tag, Buffer payload) {
  send(peer, tag, std::move(payload));
  return recv(peer, tag);
}

void RankCtx::barrier() {
  clock_ = machine_.sync_clock_at_barrier(rank_, clock_);
}

void RankCtx::advance_clock(double seconds) {
  CAMB_CHECK_MSG(seconds >= 0, "clocks only move forward");
  clock_ += straggler_ * seconds;
}

void RankCtx::acquire_bytes(i64 bytes) {
  CAMB_CHECK_MSG(bytes >= 0, "working-set sizes are non-negative");
  current_bytes_ += bytes;
  peak_bytes_ = std::max(peak_bytes_, current_bytes_);
}

void RankCtx::release_bytes(i64 bytes) {
  CAMB_CHECK_MSG(bytes >= 0 && bytes <= current_bytes_,
                 "unbalanced working-set release");
  current_bytes_ -= bytes;
}

void RankCtx::set_phase(PhaseId phase) {
  machine_.stats().set_phase(rank_, phase);
}

void RankCtx::set_phase(const std::string& phase) {
  machine_.stats().set_phase(rank_, PhaseId(phase));
}

Network& RankCtx::network() { return machine_.network(); }

BufferPool& RankCtx::pool() { return machine_.network().pool(rank_); }

Machine::Machine(int nprocs, std::uint64_t seed)
    : network_(nprocs), barrier_(nprocs), seed_(seed) {
  // Reduce the barrier clocks to their max once per release (by the
  // releasing participant, under the barrier mutex) instead of once per
  // rank: sync_clock_at_barrier would otherwise read O(P) slots on each of
  // P ranks — O(P^2) per barrier, real seconds at P = 65,536.
  barrier_.set_on_release([this] {
    double worst = 0.0;
    for (double c : barrier_clocks_) worst = std::max(worst, c);
    barrier_max_ = worst;
  });
}

Trace& Machine::enable_trace() {
  if (!trace_) {
    trace_ = std::make_unique<Trace>(nprocs());
    network_.set_trace(trace_.get());
  }
  return *trace_;
}

FaultPlan& Machine::enable_faults(const FaultProfile& profile,
                                  std::uint64_t fault_seed,
                                  std::uint64_t sdc_seed) {
  fault_plan_ =
      std::make_unique<FaultPlan>(profile, fault_seed, nprocs(), sdc_seed);
  network_.set_fault_plan(fault_plan_.get());
  return *fault_plan_;
}

ReliableTransport& Machine::enable_reliable_transport(
    std::uint64_t checksum_seed) {
  reliable_ = std::make_unique<ReliableTransport>(checksum_seed);
  network_.set_reliable(reliable_.get());
  return *reliable_;
}

CrashPlan& Machine::enable_crashes(const std::vector<int>& ranks,
                                   std::uint64_t crash_seed,
                                   i64 max_send_position) {
  crash_plan_ = std::make_unique<CrashPlan>(
      CrashPlan::derived(ranks, crash_seed, nprocs(), max_send_position));
  network_.set_crash_plan(crash_plan_.get());
  return *crash_plan_;
}

CrashPlan& Machine::enable_crashes(std::vector<CrashEvent> events) {
  crash_plan_ = std::make_unique<CrashPlan>(std::move(events), nprocs());
  network_.set_crash_plan(crash_plan_.get());
  return *crash_plan_;
}

void Machine::note_detection(DetectionEvent event) {
  std::lock_guard<std::mutex> lock(outcome_mutex_);
  outcome_.detections.push_back(event);
}

void Machine::note_abandon(int rank) {
  std::lock_guard<std::mutex> lock(outcome_mutex_);
  outcome_.abandoned.push_back(rank);
}

void Machine::handle_rank_failure(int r) {
  network_.mark_rank_dead(r);
  barrier_.drop_participant();
}

void Machine::run(const std::function<void(RankCtx&)>& program) {
  if (fault_plan_ != nullptr && fault_plan_->profile().any_message_sdc() &&
      network_.reliable() == nullptr) {
    throw Error(
        "fault profile injects message drop/flip/dup events but no reliable "
        "transport is attached — a dropped copy would hang its receiver; "
        "call enable_reliable_transport (CLI: --reliable)");
  }
  const int p = nprocs();
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  std::vector<char> crashed(static_cast<std::size_t>(p), 0);
  std::vector<double> crash_clock(static_cast<std::size_t>(p), 0.0);
  final_clocks_.assign(static_cast<std::size_t>(p), 0.0);
  barrier_clocks_.assign(static_cast<std::size_t>(p), 0.0);
  peak_memory_.assign(static_cast<std::size_t>(p), 0);
  outcome_ = CrashOutcome{};
  transport_debris_.clear();
  // Under the threads scheduler, rank bodies run on the process-wide worker
  // pool — real OS threads, reused across Machine runs so small programs
  // don't pay P thread create/join pairs each.  Under the fiber scheduler,
  // the same bodies run as cooperatively scheduled fibers multiplexed onto
  // pool-width threads (fiber.hpp) — the mode that reaches P in the tens of
  // thousands.  The task catches everything; it never throws.
  const std::function<void(int)> task = [&](int r) {
    // Every payload this rank packs draws from — and returns to — its own
    // free-list pool for the duration of the program.
    BufferPool::Scope pool_scope(&network_.pool(r));
    RankCtx ctx(*this, r);
    try {
      program(ctx);
      final_clocks_[static_cast<std::size_t>(r)] = ctx.clock();
      peak_memory_[static_cast<std::size_t>(r)] = ctx.peak_bytes();
    } catch (const RankCrashed& rc) {
      // The planned crash: the rank dies cleanly, drains nothing, and its
      // rank body exits.  Survivors learn of it through the dead-marking.
      crashed[static_cast<std::size_t>(r)] = 1;
      crash_clock[static_cast<std::size_t>(r)] = rc.clock();
      final_clocks_[static_cast<std::size_t>(r)] = rc.clock();
      peak_memory_[static_cast<std::size_t>(r)] = ctx.peak_bytes();
      handle_rank_failure(r);
    } catch (...) {
      // Any other failure gets the same liveness treatment so peers
      // blocked on this rank fail over instead of deadlocking the join.
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      final_clocks_[static_cast<std::size_t>(r)] = ctx.clock();
      handle_rank_failure(r);
    }
  };
  if (resolve_scheduler_kind(scheduler_.kind) == SchedulerKind::kFibers) {
    FiberScheduler::Options fopts;
    fopts.workers = scheduler_.workers;
    fopts.stack_bytes = scheduler_.stack_bytes;
    fopts.interleave_seed = scheduler_.interleave_seed;
    FiberScheduler::run(p, task, fopts);
  } else {
    WorkerPool::instance().run(p, task);
  }

  for (int r = 0; r < p; ++r) {
    if (crashed[static_cast<std::size_t>(r)]) {
      outcome_.crashed.push_back(r);
      outcome_.crash_clocks.push_back(crash_clock[static_cast<std::size_t>(r)]);
    }
  }
  // A rank may abandon several rollback rounds in one run; report it once.
  std::sort(outcome_.abandoned.begin(), outcome_.abandoned.end());
  outcome_.abandoned.erase(
      std::unique(outcome_.abandoned.begin(), outcome_.abandoned.end()),
      outcome_.abandoned.end());
  std::sort(outcome_.detections.begin(), outcome_.detections.end(),
            [](const DetectionEvent& a, const DetectionEvent& b) {
              if (a.detector != b.detector) return a.detector < b.detector;
              if (a.failed != b.failed) return a.failed < b.failed;
              return a.tag < b.tag;
            });

  // Rethrow priority: a substantive error beats the detection errors it
  // caused; among detections, one naming an actually-crashed rank beats the
  // cascade variants.  Within a class, lowest rank wins (deterministic).
  std::exception_ptr first_other;
  std::exception_ptr first_peer_crashed;
  std::exception_ptr first_peer;
  for (int r = 0; r < p; ++r) {
    const auto& err = errors[static_cast<std::size_t>(r)];
    if (!err) continue;
    outcome_.errored.push_back(r);
    try {
      std::rethrow_exception(err);
    } catch (const PeerFailedError& e) {
      if (!first_peer) first_peer = err;
      if (!first_peer_crashed && e.failed_rank() >= 0 && e.failed_rank() < p &&
          crashed[static_cast<std::size_t>(e.failed_rank())]) {
        first_peer_crashed = err;
      }
    } catch (...) {
      if (!first_other) first_other = err;
    }
  }

  const bool any_failures =
      !outcome_.crashed.empty() || !outcome_.errored.empty();
  if (any_failures) {
    // Undelivered mail after a failure is crash debris, not a program leak:
    // record it for forensics and clear the mailboxes.
    outcome_.debris = network_.undelivered();
  }
  if (first_other) std::rethrow_exception(first_other);
  if (first_peer_crashed) std::rethrow_exception(first_peer_crashed);
  if (first_peer) std::rethrow_exception(first_peer);
  if (!any_failures) {
    std::vector<UndeliveredMessage> leaked = network_.undelivered();
    // Injected duplicates whose originals were delivered are transport
    // debris, not program leaks: every word of them was charged to the
    // sender's transport phase, and the program's own envelopes all
    // matched.  Keep them inspectable, but out of the leak report.
    auto debris_begin = std::partition(
        leaked.begin(), leaked.end(),
        [](const UndeliveredMessage& m) { return !m.transport_dup; });
    transport_debris_.assign(debris_begin, leaked.end());
    leaked.erase(debris_begin, leaked.end());
    if (!leaked.empty()) {
      std::ostringstream msg;
      msg << "program finished with " << leaked.size()
          << " undelivered message" << (leaked.size() == 1 ? "" : "s") << ":";
      constexpr std::size_t kMaxListed = 20;
      for (std::size_t i = 0; i < leaked.size() && i < kMaxListed; ++i) {
        const UndeliveredMessage& m = leaked[i];
        msg << "\n  src " << m.src << " -> dst " << m.dst << " tag " << m.tag
            << " bytes " << m.bytes << " phase \"" << m.phase << "\"";
      }
      if (leaked.size() > kMaxListed) {
        msg << "\n  ... and " << (leaked.size() - kMaxListed) << " more";
      }
      throw Error(msg.str());
    }
  }
}

double Machine::critical_path_time() const {
  double worst = 0.0;
  for (double clock : final_clocks_) worst = std::max(worst, clock);
  return worst;
}

double Machine::max_peak_memory_words() const {
  i64 worst = 0;
  for (i64 bytes : peak_memory_) worst = std::max(worst, bytes);
  return static_cast<double>(worst) / 8.0;
}

double Machine::sync_clock_at_barrier(int rank, double clock) {
  barrier_clocks_[static_cast<std::size_t>(rank)] = clock;
  barrier_.arrive_and_wait();
  // The releasing participant reduced the slots to barrier_max_ (under the
  // barrier mutex, which every arrival passes through — so the value is
  // ordered with respect to each rank's slot write and this read).
  const double worst = barrier_max_;
  barrier_.arrive_and_wait();  // keep slots stable until everyone has read
  return worst;
}

}  // namespace camb
