// network.hpp — the fully connected, bidirectional network of §3.1.
//
// The network owns one mailbox per processor and is the single point through
// which every message flows, so communication accounting is exact by
// construction: a word cannot move between ranks without being counted.
//
// It also owns one BufferPool per processor: payloads are move-only pooled
// Buffers, packed once on the sender, moved through the mailbox, and moved
// out to the receiver — the words of a message are never copied in transit.
// Self-sends (which the model does not count) likewise deliver by move: the
// payload's storage travels from the send call to the matching receive
// without touching the allocator or the word counters.
//
// The per-message path is flat: the sender's phase is an interned PhaseId
// (machine/phase.hpp), so CommStats counts with an indexed add and the
// message carries an int, not a string; the mailbox reaches its source
// bucket through an open-addressed index; and waking a parked receiver
// reuses its wait list's capacity.  Apart from the payload's own storage,
// a send and its receive do no string work, hashing of names, global
// locking or heap allocation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "machine/buffer_pool.hpp"
#include "machine/comm_stats.hpp"
#include "machine/faults.hpp"
#include "machine/mailbox.hpp"
#include "machine/trace.hpp"

namespace camb {

class ReliableTransport;

class Network {
 public:
  explicit Network(int nprocs);

  int nprocs() const { return nprocs_; }
  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

  /// The payload pool of rank `rank`; the rank's thread installs it as its
  /// current pool (BufferPool::Scope) for the duration of an SPMD program.
  BufferPool& pool(int rank);

  /// Attach (or detach with nullptr) an event trace; every subsequent
  /// counted send is recorded there.  Not owned.
  void set_trace(Trace* trace) { trace_ = trace; }

  /// Attach (or detach with nullptr) a fault plan; every subsequent counted
  /// send through send_timed consults it.  Not owned.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() { return fault_plan_; }

  /// Attach (or detach with nullptr) a crash plan; every subsequent counted
  /// send through send_timed consults it *before* the fault plan — a rank
  /// whose planned crash triggers throws RankCrashed instead of sending.
  void set_crash_plan(CrashPlan* plan) { crash_plan_ = plan; }
  CrashPlan* crash_plan() { return crash_plan_; }

  /// Attach (or detach with nullptr) the reliable transport
  /// (machine/reliable.hpp).  With a transport attached every counted send
  /// carries a checksummed envelope, the fault plan's SDC events (drops,
  /// bit-flips, duplicates) are physically injected — extra copies on the
  /// wire, corrupt copies nacked and retransmitted, duplicates discarded —
  /// and a send that exhausts its retransmit budget throws TransportError.
  /// All repair tax is accounted in the "transport" phase; algorithm phases
  /// stay word-exact to the fault-free run.  Not owned.
  void set_reliable(ReliableTransport* transport) { reliable_ = transport; }
  ReliableTransport* reliable() { return reliable_; }

  /// Send `payload` from rank `src` to rank `dst` with tag `tag`.
  /// Buffered: returns as soon as the message is deposited. Self-sends are
  /// permitted and delivered but are NOT counted as communication (data that
  /// stays in a processor's local memory is free in the model); their
  /// payload is delivered by move, storage intact.
  /// `depart_time` stamps the sender's logical clock onto the message.
  void send(int src, int dst, int tag, Buffer payload,
            double depart_time = 0.0);

  /// The clocked (and fault-injecting) send used by RankCtx: charges the
  /// sender's logical clock for the send under `params`, consults the
  /// attached crash plan (throwing RankCrashed when the sender's planned
  /// death triggers) and fault plan (transient failures retried with
  /// exponential backoff — words and the message counted once, latency
  /// charged per attempt; delivery delays inflate the arrival stamp only;
  /// stragglers scale the sender's charge), and returns the sender's new
  /// clock.  With no plans attached this is exactly the historical
  /// behaviour: clock + alpha + beta * words for counted sends, clock for
  /// self-sends.
  double send_timed(int src, int dst, int tag, Buffer payload, double clock,
                    const AlphaBeta& params);

  /// Blocking receive at rank `dst` of the message (src, tag).
  /// `arrival_time`, when non-null, receives the message's departure stamp.
  /// Oblivious to failure marking — callers that must survive crashed peers
  /// use recv_or_failed.
  Buffer recv(int dst, int src, int tag, double* arrival_time = nullptr);

  /// Failure-aware receive: blocks until a matching message with arrival
  /// stamp <= `deadline` is delivered, a matching message past the deadline
  /// is observed (kTimedOut — the message stays queued), or the source is
  /// marked failed with nothing matching buffered (kSrcDead / kSrcDeviated;
  /// the latter only for tags below kRecoveryTagBase).  On a failure
  /// outcome a zero-word suspicion probe is accounted to `dst` in the
  /// dedicated "heartbeat" phase — detection costs latency/messages, never
  /// words, and never pollutes algorithm phases.
  RecvStatus recv_or_failed(int dst, int src, int tag, double deadline,
                            Buffer* payload, double* arrival_time = nullptr);

  /// Mark `rank` as crashed in every mailbox: pending receives targeting it
  /// fail over (after draining anything it buffered before dying).
  void mark_rank_dead(int rank);

  /// Mark `rank` as having abandoned the algorithm phase: receives of tags
  /// below kRecoveryTagBase fail over; recovery-protocol tags still work.
  void mark_rank_deviated(int rank);

  /// Generalized deviation marking for the checkpoint/rollback protocol:
  /// receives from `rank` of tags below `tag_limit` fail over.  Rollback
  /// rounds carve the recovery region into bands, so an aborted round is
  /// abandoned by raising the limit to the next band's base.
  void mark_rank_deviated(int rank, int tag_limit);

  /// Count of undelivered messages across all mailboxes; a correct algorithm
  /// leaves zero behind.
  std::size_t pending_messages() const;

  /// Sweep every mailbox in one pass — one lock acquisition per mailbox —
  /// and return the envelopes left behind (leak forensics after a clean
  /// run, crash debris after a faulted one).  Clears the mailboxes.
  std::vector<UndeliveredMessage> undelivered();

 private:
  /// Reliable-transport acceptance of one popped message: true for a real
  /// delivery, false for debris (dup discarded silently, corrupt copy
  /// nacked) that the receive loop must pop past.
  bool transport_accept(int dst, Message& msg);

  int nprocs_;
  CommStats stats_;
  Trace* trace_ = nullptr;
  FaultPlan* fault_plan_ = nullptr;
  CrashPlan* crash_plan_ = nullptr;
  ReliableTransport* reliable_ = nullptr;
  // Pools are declared before mailboxes and so outlive them during
  // destruction: a queued Buffer destroyed by ~Mailbox can always reach its
  // origin pool.
  std::vector<std::unique_ptr<BufferPool>> pools_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace camb
