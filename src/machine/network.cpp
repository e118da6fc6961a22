#include "machine/network.hpp"

#include "machine/reliable.hpp"
#include "util/error.hpp"

namespace camb {
namespace {

const PhaseId kTransportPhase(kPhaseTransport);
const PhaseId kHeartbeatPhase("heartbeat");

}  // namespace

Network::Network(int nprocs) : nprocs_(nprocs), stats_(nprocs) {
  CAMB_CHECK_MSG(nprocs >= 1, "network needs at least one processor");
  pools_.reserve(nprocs);
  mailboxes_.reserve(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    pools_.push_back(std::make_unique<BufferPool>());
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

BufferPool& Network::pool(int rank) {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  return *pools_[static_cast<std::size_t>(rank)];
}

void Network::send(int src, int dst, int tag, Buffer payload,
                   double depart_time) {
  CAMB_CHECK(src >= 0 && src < nprocs_ && dst >= 0 && dst < nprocs_);
  const bool counted = (src != dst);
  if (counted) {
    stats_.record_send(src, payload.byte_size());
    if (trace_ != nullptr) {
      trace_->record(src, dst, tag, payload.byte_size(), stats_.phase(src));
    }
  }
  // Counted or not, delivery is a move of the payload's storage into the
  // destination mailbox; a self-send in particular costs zero copies.
  Message msg{src, tag, depart_time, std::move(payload), stats_.phase(src)};
  if (counted && reliable_ != nullptr) {
    // The plain (unclocked) path injects no SDC events, but its envelopes
    // still need valid checksums or the transport-aware receive would nack
    // them forever.
    msg.checksum = reliable_->checksum(msg.payload);
  }
  mailboxes_[dst]->push(std::move(msg));
}

double Network::send_timed(int src, int dst, int tag, Buffer payload,
                           double clock, const AlphaBeta& params) {
  CAMB_CHECK(src >= 0 && src < nprocs_ && dst >= 0 && dst < nprocs_);
  if (src == dst) {
    // Self-sends are free and fault-exempt: the data never leaves local
    // memory, so there is nothing for the network to perturb — and nothing
    // for a crash to interrupt.  The payload is delivered by move.
    mailboxes_[dst]->push(Message{src, tag, clock, std::move(payload),
                                  stats_.phase(src)});
    return clock;
  }
  // The crash plan rules first: a rank that dies at this send performs no
  // part of it (no fault decision is consumed, nothing is counted, nothing
  // is delivered).  The per-sender send index advances either way, so the
  // death position is a pure program-order fact of the sender.
  if (crash_plan_ != nullptr && crash_plan_->should_crash(src)) {
    throw RankCrashed(src, clock);
  }
  SendFaults faults;
  double slowdown = 1.0;
  if (fault_plan_ != nullptr) {
    faults = fault_plan_->decide_send(src);
    slowdown = fault_plan_->straggler_factor(src);
  }
  const int attempts = 1 + faults.failed_attempts;
  const i64 bytes = payload.byte_size();
  // β is charged per 8-byte word; exact halves for 4-byte scalars.
  const double words = static_cast<double>(bytes) / 8.0;
  // SDC events are physical only under the reliable transport; Machine::run
  // rejects SDC profiles without one, so this guard is belt-and-braces.
  const bool sdc_active = reliable_ != nullptr;
  const int failed_copies =
      sdc_active ? faults.dropped_copies + faults.corrupt_copies : 0;
  const bool duplicated = sdc_active && faults.duplicated;

  if (sdc_active && faults.transport_exhausted) {
    // Every copy in the budget dropped or arrived corrupt: the transport
    // gives up.  The wasted wire words and backoff latency are still real —
    // account them in the transport phase, then surface the named error.
    clock += slowdown *
             (params.alpha *
                  FaultPlan::retry_alpha_units(faults.failed_attempts +
                                               failed_copies) +
              params.beta * (words * failed_copies));
    const PhaseId active = stats_.phase(src);
    stats_.set_phase(src, kTransportPhase);
    for (int k = 0; k < failed_copies; ++k) stats_.record_send(src, bytes);
    stats_.set_phase(src, active);
    auto& tc = stats_.transport_mut(src);
    tc.retransmits += failed_copies;
    tc.retransmitted_bytes += bytes * failed_copies;
    if (trace_ != nullptr) {
      trace_->record_transport(src, dst, tag, bytes, faults.dropped_copies,
                               faults.corrupt_copies, false);
    }
    throw TransportError(src, dst, tag, failed_copies,
                         fault_plan_->profile().max_transport_retries);
  }

  // Latency charged per attempt (with backoff), payload words exactly once
  // in the algorithm phase; every failed transport copy costs one more
  // backoff round and its wire words, the duplicate one more plain send.
  clock += slowdown *
           (params.alpha *
                FaultPlan::retry_alpha_units(attempts + failed_copies) +
            params.beta * (words * (1 + failed_copies)) +
            (duplicated ? params.alpha + params.beta * words : 0.0));
  stats_.record_send(src, bytes);
  if (trace_ != nullptr) {
    trace_->record(src, dst, tag, bytes, stats_.phase(src));
    if (attempts > 1 || faults.delay > 0) {
      trace_->record_fault(src, dst, tag, faults.failed_attempts, faults.delay,
                           faults.reorder_skip);
    }
  }
  const int extra_copies = failed_copies + (duplicated ? 1 : 0);
  if (extra_copies > 0) {
    // Sender-side transport tax: one counted send per extra on-wire copy
    // (dropped, corrupted, or duplicated), in the dedicated phase so the
    // algorithm phases stay word-exact to the fault-free run.
    const PhaseId active = stats_.phase(src);
    stats_.set_phase(src, kTransportPhase);
    for (int k = 0; k < extra_copies; ++k) stats_.record_send(src, bytes);
    stats_.set_phase(src, active);
    auto& tc = stats_.transport_mut(src);
    tc.retransmits += failed_copies;
    tc.retransmitted_bytes += bytes * failed_copies;
    if (duplicated) ++tc.dup_copies;
    if (trace_ != nullptr) {
      trace_->record_transport(src, dst, tag, bytes, faults.dropped_copies,
                               faults.corrupt_copies, duplicated);
    }
  }

  const double stamp = clock + faults.delay;
  const PhaseId phase = stats_.phase(src);
  if (sdc_active) {
    // Corrupt copies are deposited *before* the clean one: per-envelope
    // FIFO order guarantees the receiver sees (and nacks) them first, which
    // is exactly the drop-discard-retransmit schedule of a real ARQ.
    // Dropped copies never reach the mailbox at all.
    const std::uint64_t clean_checksum = reliable_->checksum(payload);
    for (int k = 0; k < faults.corrupt_copies; ++k) {
      Message corrupt;
      corrupt.src = src;
      corrupt.tag = tag;
      corrupt.depart_time = stamp;
      corrupt.payload = reliable_->forge_corrupt_copy(
          payload, faults.flip_entropy, k, &corrupt.checksum);
      corrupt.phase = phase;
      mailboxes_[dst]->push(std::move(corrupt), faults.reorder_skip);
    }
    Buffer dup_payload = duplicated ? payload.clone() : Buffer();
    Message clean;
    clean.src = src;
    clean.tag = tag;
    clean.depart_time = stamp;
    clean.payload = std::move(payload);
    clean.phase = phase;
    clean.checksum = clean_checksum;
    mailboxes_[dst]->push(std::move(clean), faults.reorder_skip);
    if (duplicated) {
      Message dup;
      dup.src = src;
      dup.tag = tag;
      dup.depart_time = stamp;
      dup.payload = std::move(dup_payload);
      dup.phase = phase;
      dup.checksum = clean_checksum;
      dup.transport_dup = true;
      mailboxes_[dst]->push(std::move(dup), faults.reorder_skip);
    }
  } else {
    mailboxes_[dst]->push(Message{src, tag, stamp, std::move(payload), phase},
                          faults.reorder_skip);
  }
  return clock;
}

// Transport-side acceptance check, shared by both receive paths.  Returns
// true when `msg` is a real delivery; false when it was transport debris
// (an injected duplicate, discarded silently, or a corrupt copy, nacked and
// charged to the receiver's transport phase) and the caller must pop again.
bool Network::transport_accept(int dst, Message& msg) {
  if (msg.src == dst || reliable_ == nullptr) return true;
  if (msg.transport_dup) {
    // A duplicate of an envelope already delivered: the wire words were
    // charged to the sender, the receiver drops it for free.
    ++stats_.transport_mut(dst).dup_discards;
    return false;
  }
  if (msg.checksum != reliable_->checksum(msg.payload)) {
    // Corrupt copy: the words did arrive (and are charged to the receiver's
    // transport phase), the zero-word nack goes back, and the retransmit is
    // already queued behind it in the same envelope.
    auto& tc = stats_.transport_mut(dst);
    ++tc.corrupt_discards;
    ++tc.nacks;
    const PhaseId active = stats_.phase(dst);
    stats_.set_phase(dst, kTransportPhase);
    stats_.record_receive(dst, msg.payload.byte_size());
    stats_.record_send(dst, 0);  // the nack
    stats_.set_phase(dst, active);
    return false;
  }
  ++stats_.transport_mut(dst).acks;
  return true;
}

Buffer Network::recv(int dst, int src, int tag, double* arrival_time) {
  CAMB_CHECK(src >= 0 && src < nprocs_ && dst >= 0 && dst < nprocs_);
  for (;;) {
    Message msg = mailboxes_[dst]->pop_matching(src, tag);
    if (!transport_accept(dst, msg)) continue;
    if (src != dst) {
      stats_.record_receive(dst, msg.payload.byte_size());
    }
    if (arrival_time != nullptr) *arrival_time = msg.depart_time;
    return std::move(msg.payload);
  }
}

RecvStatus Network::recv_or_failed(int dst, int src, int tag, double deadline,
                                   Buffer* payload, double* arrival_time) {
  CAMB_CHECK(src >= 0 && src < nprocs_ && dst >= 0 && dst < nprocs_);
  Message msg;
  RecvStatus status;
  for (;;) {
    status = mailboxes_[dst]->pop_matching_or_failed(src, tag, deadline, &msg);
    if (status == RecvStatus::kDelivered && !transport_accept(dst, msg)) {
      continue;  // transport debris — the real delivery is still queued
    }
    break;
  }
  if (status == RecvStatus::kDelivered) {
    if (src != dst) {
      stats_.record_receive(dst, msg.payload.byte_size());
    }
    if (arrival_time != nullptr) *arrival_time = msg.depart_time;
    *payload = std::move(msg.payload);
    return status;
  }
  // Failure / timeout: account the suspicion probe that "detected" it — one
  // zero-word message in the dedicated heartbeat phase.  Words stay zero and
  // the rank's active algorithm phase is untouched, so detection can never
  // perturb the paper's word counts.
  const PhaseId active = stats_.phase(dst);
  stats_.set_phase(dst, kHeartbeatPhase);
  stats_.record_send(dst, 0);
  stats_.set_phase(dst, active);
  return status;
}

void Network::mark_rank_dead(int rank) {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  for (auto& mailbox : mailboxes_) mailbox->mark_dead(rank);
}

void Network::mark_rank_deviated(int rank) {
  mark_rank_deviated(rank, kRecoveryTagBase);
}

void Network::mark_rank_deviated(int rank, int tag_limit) {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  for (auto& mailbox : mailboxes_) mailbox->mark_deviated(rank, tag_limit);
}

std::size_t Network::pending_messages() const {
  std::size_t total = 0;
  for (const auto& mailbox : mailboxes_) total += mailbox->pending();
  return total;
}

std::vector<UndeliveredMessage> Network::undelivered() {
  std::vector<UndeliveredMessage> out;
  for (int dst = 0; dst < nprocs_; ++dst) {
    mailboxes_[static_cast<std::size_t>(dst)]->drain_undelivered(dst, out);
  }
  return out;
}

}  // namespace camb
