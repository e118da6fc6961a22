// mailbox.hpp — per-processor message queue with (source, tag) matching.
//
// Sends are buffered (never block), so any schedule of matching sends and
// receives is deadlock-free; receives block until a matching message arrives.
// This mirrors the eager-protocol semantics message-passing programs rely on
// for small and medium messages, and keeps collective implementations simple.
//
// Storage layout: messages live in *per-source envelope buckets*, so
// pop_matching(src, tag) scans only the messages `src` currently has in
// flight — O(match) — instead of the whole queue.  Buckets are sized to the
// rank's actual partners: an open-addressed src -> bucket index
// (machine/flat.hpp: a multiply-shift hash, linear probing, no nodes, no
// division) holds one FIFO per source that has pushed here.  A rank talks
// to O(grid dimension) peers, so dense per-source storage would cost O(P)
// per mailbox — O(P^2) per machine — while the index stays O(1) per lookup
// even when a rank hears from thousands of sources (alltoall, shrink
// flooding).  The FIFOs own no storage: every queued message sits in one
// per-mailbox slab, and a bucket is a head/tail pair of slab indices
// chained through the slots.
// A separate *any-queue index* (`order_`, a ring) records global arrival
// order (including the fault layer's legal reorderings) as lightweight
// (src, tag, seq) entries, giving pop_any and drain exactly the order the
// old single-deque implementation exposed without ever moving a payload to
// reorder.  Entries whose message was matched out of a bucket are skipped
// lazily via a stale-sequence set (another flat index); because matching is
// FIFO per envelope, the earliest live entry of an envelope always
// corresponds to the earliest queued message of that envelope.  Every
// container keeps its capacity, so a mailbox allocates only while it grows
// to its largest backlog and partner count; after that the payload's own
// storage is the only heap traffic a message causes.
//
// Failure awareness (crash-fault support): a source rank may be marked *dead*
// (it crashed — no further message from it will ever arrive) or *deviated*
// (it abandoned the algorithm but still participates in the recovery
// protocol, i.e. in tags >= kRecoveryTagBase).  Receives targeting such a
// source deliver any message the source buffered *before* failing — those are
// real, the eager protocol already holds them — and only fail over once the
// queue holds nothing matching.  Because message presence is a fact of the
// sender's program order (it either reached that send before dying or it did
// not, deterministically under CrashPlan), the deliver-then-fail outcome is
// identical across OS schedules.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "machine/buffer_pool.hpp"
#include "machine/fiber.hpp"
#include "machine/flat.hpp"
#include "machine/phase.hpp"
#include "util/math.hpp"

namespace camb {

/// A message in flight: the payload plus its envelope, the logical time at
/// which it left the sender (see machine.hpp's clock model), and the sender's
/// phase at send time (for leak-report forensics).  Payloads are
/// pooled move-only Buffers: a message is moved into the mailbox and moved
/// out to the receiver; its words are never copied in between.
struct Message {
  int src = -1;
  int tag = 0;
  double depart_time = 0.0;
  Buffer payload;
  PhaseId phase{};
  std::uint64_t seq = 0;  ///< arrival sequence, assigned by the mailbox
  // Reliable-transport envelope fields (machine/reliable.hpp).  The checksum
  // is metadata, not payload — it adds no words to any count.  A copy marked
  // transport_dup is an injected duplicate of an already-delivered message:
  // the receive path discards it silently, and one still parked here at run
  // end is transport debris, not a program leak.
  std::uint64_t checksum = 0;
  bool transport_dup = false;
};

/// One message left in a mailbox after a run — the leak / crash-debris
/// report entry (name the envelope, not just the count).
struct UndeliveredMessage {
  int src = -1;
  int dst = -1;
  int tag = 0;
  i64 bytes = 0;
  std::string phase;
  bool transport_dup = false;  ///< injected duplicate — benign debris

  double words() const { return static_cast<double>(bytes) / 8.0; }
};

/// How a blocking receive concluded under failure marking.
enum class RecvStatus {
  kDelivered,     ///< a matching message was returned
  kSrcDead,       ///< source crashed and nothing matching is buffered
  kSrcDeviated,   ///< source abandoned this tag range, nothing buffered
  kTimedOut,      ///< a match exists but its arrival stamp exceeds the
                  ///< deadline; the message stays queued
};

class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposit a message (called by the sender's thread). Never blocks.
  /// `reorder_skip` > 0 lets the message jump ahead of up to that many
  /// already-queued messages bearing a *different* (src, tag) envelope —
  /// the legal reorderings of the fault-injection layer.  Messages with the
  /// same envelope are never passed, so per-envelope FIFO order (the only
  /// order tag-matched receives can observe) is preserved.  Reordering
  /// swaps index entries, never payloads.
  void push(Message msg, int reorder_skip = 0);

  /// Block until a message with envelope (src, tag) is available and return
  /// it.  Matching is exact on both fields; use wildcards via recv_any.
  Message pop_matching(int src, int tag);

  /// Failure-aware, deadline-aware variant: blocks until a matching message
  /// arrives OR the source can no longer produce one (dead for any tag;
  /// deviated for tags below the recovery base).  Buffered matches always
  /// win over failure marking.  A match whose arrival stamp exceeds
  /// `max_stamp` yields kTimedOut and is left queued (the logical-clock
  /// receive timeout: the message is still "in flight" at the deadline).
  RecvStatus pop_matching_or_failed(int src, int tag, double max_stamp,
                                    Message* out);

  /// Block until any message is available and return the oldest one (in
  /// arrival order, as perturbed by legal reorderings).
  Message pop_any();

  /// Mark `src` as crashed: receives from it fail over once drained.
  void mark_dead(int src);

  /// Mark `src` as having abandoned the algorithm: receives of tags below
  /// `tag_base` fail over once drained; recovery tags still block normally.
  void mark_deviated(int src, int tag_base);

  /// Number of queued messages (for tests / leak detection).
  std::size_t pending() const;

  /// Number of per-source buckets materialized (for tests: the sparse
  /// footprint contract — only sources that actually pushed have buckets;
  /// receives polling a silent source must not create one).
  std::size_t bucket_count() const;

  /// Remove and return every queued message (oldest first), for tests.
  std::vector<Message> drain();

  /// Single-lock leak/debris sweep: append one envelope record per queued
  /// message (oldest first) to `out` and clear the mailbox.  This is the
  /// call Network::undelivered makes so the post-run leak report takes one
  /// lock per mailbox instead of a pending()+drain() pair per call site.
  void drain_undelivered(int dst, std::vector<UndeliveredMessage>& out);

 private:
  /// One any-queue index entry: the envelope plus the arrival sequence of
  /// the message it stands for.
  struct Entry {
    int src = -1;
    int tag = 0;
    std::uint64_t seq = 0;
  };

  /// One slot of the message slab; `next` chains a bucket's FIFO (or the
  /// free list) through slot indices.
  struct Node {
    Message msg;
    int next = -1;
  };

  /// One source's FIFO, as head/tail slab indices: append at the tail on
  /// arrival, unlink on match.  Buckets are shallow (a handful of in-flight
  /// messages), so a match walks a few links, and no bucket owns storage.
  struct Bucket {
    int head = -1;
    int tail = -1;
  };

  /// Append `msg` to the bucket of its source, creating the bucket on the
  /// first push from that source — push() is the only caller, so buckets
  /// exist exactly for the sources that have actually sent here (mailboxes
  /// are constructed without knowing the machine size, and most sources
  /// never write here).
  void append(Message msg);

  /// The slab index of the oldest message in `b` with tag `tag`, or -1;
  /// `*prev` receives its predecessor in the bucket (-1 at the head).
  int find_match(const Bucket& b, int tag, int* prev) const;

  /// Unlink slab slot `at` (predecessor `prev`) from `b`, free the slot,
  /// and retire its index entry: directly if it is the index front, else
  /// via the stale set.  `indexed` says whether the entry is still in
  /// order_ (true for matching pops; false for pop_any, which removed the
  /// entry itself).
  Message take(Bucket& b, int at, int prev, bool indexed);

  /// Forget every bucket and stale mark (after a drain emptied them).
  void clear_buckets();

  /// Block until this mailbox is notified again: parks when called on a
  /// fiber, waits on the condition variable otherwise.  Callers loop.
  void wait_for_mail(std::unique_lock<std::mutex>& lock);

  /// Drop index-front entries whose messages were already matched out.
  void trim_order_front();

  /// Filter stale entries out of the index once they outnumber the live
  /// ones (stale entries buried behind long-lived live entries are
  /// unreachable by trim_order_front).  Amortized O(1) per matching pop;
  /// bounds the index at ~2x the pending-message count.
  void compact_if_sparse();

  /// Remove and return the oldest queued message with envelope (src, tag).
  /// Precondition: one exists.
  Message take_oldest(int src, int tag, bool indexed);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  FiberWaitList waiters_;
  std::vector<Node> slab_;  ///< every queued message, plus free slots
  int free_ = -1;            ///< head of the free-slot chain
  FlatIndex<int, std::numeric_limits<int>::min(), Bucket> buckets_;  ///< by src
  RingQueue<Entry> order_;                        ///< any-queue index
  FlatIndex<std::uint64_t, 0> stale_;  ///< matched-out entry seqs (seq >= 1)
  std::uint64_t next_seq_ = 1;
  std::size_t size_ = 0;
  std::vector<int> dead_;
  std::vector<std::pair<int, int>> deviated_;  ///< (src, tag_base)
};

}  // namespace camb
