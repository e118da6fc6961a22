// comm_stats.hpp — exact communication accounting for the simulated machine.
//
// The paper's claims are statements about *words of data communicated per
// processor along the critical path* in the α-β-γ model (§3.1).  Every send
// through the network is recorded here, per rank and per named phase, so that
// the benchmark harness can compare measured communication of an executed
// algorithm against the analytic lower bound word-for-word.
//
// Conventions:
//  * one "word" = one element of the payload (double);
//  * phases are interned PhaseIds (machine/phase.hpp): set_phase stores an
//    id and a slot index, record_send/record_receive add into the active
//    slot — no string, map or lock on the message path;
//  * per-rank counters are only ever written by that rank's thread, so they
//    are plain fields in a cache-line padded per-rank slot, not atomics.
//    Each rank keeps a flat PhaseCounters array holding one entry per phase
//    it has used, reached through a small per-rank id -> slot table, so the
//    footprint grows with the phases a rank touches, not the registry size;
//  * the bandwidth cost of an algorithm in the α-β model is reported as the
//    maximum over ranks of received words (for the symmetric, bidirectional-
//    exchange collectives used here, sent == received per rank, matching the
//    (1 - 1/p)w accounting of §5.1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "machine/phase.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace camb {

/// Counters for one rank within one phase.
///
/// Since the scalar-substrate refactor the canonical stored unit is *bytes*:
/// every payload size is an exact integer of bytes regardless of element
/// width, so the counters never round.  Words (the paper's unit, normalized
/// to 8 bytes) are exposed as derived accessors returning double — exact for
/// every supported dtype because all byte totals are multiples of 4, and
/// halves are exactly representable.  For pure-f64 runs words_sent() etc.
/// are integer-valued and bit-compare equal to the pre-refactor counts.
struct PhaseCounters {
  i64 bytes_sent = 0;
  i64 bytes_received = 0;
  i64 messages_sent = 0;
  i64 messages_received = 0;

  double words_sent() const { return static_cast<double>(bytes_sent) / 8.0; }
  double words_received() const {
    return static_cast<double>(bytes_received) / 8.0;
  }

  PhaseCounters& operator+=(const PhaseCounters& other) {
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    messages_sent += other.messages_sent;
    messages_received += other.messages_received;
    return *this;
  }
};

/// α-β cost of a set of counters: latency α per message plus bandwidth β per
/// word, using the max(sent, received) convention for bidirectional links.
struct AlphaBeta {
  double alpha = 1.0;  ///< per-message latency cost
  double beta = 1.0;   ///< per-word bandwidth cost

  double cost(const PhaseCounters& c) const {
    const double msgs =
        static_cast<double>(std::max(c.messages_sent, c.messages_received));
    const double words = std::max(c.words_sent(), c.words_received());
    return alpha * msgs + beta * words;
  }
};

/// Reliable-transport event counters for one rank (machine/reliable.hpp).
/// These are *event* counts, not word counts — the word tax of retransmits
/// already lands in the "transport" phase counters — so recovery summaries
/// can print them without re-deriving from the trace.  Sender-side fields
/// (retransmits, retransmitted_words, dup_copies) are written by the
/// sending rank's thread; receiver-side fields (corrupt_discards,
/// dup_discards, nacks, acks) by the receiving rank's; corrections by the
/// runner after the machine stops — the same single-writer discipline as
/// the phase counters.
struct TransportCounters {
  i64 retransmits = 0;         ///< extra on-wire copies (dropped + corrupt)
  i64 retransmitted_bytes = 0; ///< bytes those extra copies carried
  i64 dup_copies = 0;          ///< injected duplicates put on the wire
  i64 corrupt_discards = 0;    ///< copies this rank rejected on checksum
  i64 dup_discards = 0;        ///< duplicates this rank discarded silently
  i64 nacks = 0;               ///< zero-word rejections this rank sent back
  i64 acks = 0;                ///< clean deliveries this rank acknowledged
  i64 corrections = 0;         ///< ABFT single-error corrections applied

  TransportCounters& operator+=(const TransportCounters& other) {
    retransmits += other.retransmits;
    retransmitted_bytes += other.retransmitted_bytes;
    dup_copies += other.dup_copies;
    corrupt_discards += other.corrupt_discards;
    dup_discards += other.dup_discards;
    nacks += other.nacks;
    acks += other.acks;
    corrections += other.corrections;
    return *this;
  }
};

/// Per-rank, per-phase communication statistics for one machine run.
class CommStats {
 public:
  explicit CommStats(int nprocs);

  int nprocs() const { return nprocs_; }

  /// Set the active phase of a rank.  Subsequent traffic by that rank is
  /// attributed to this phase.  Called by the rank's own thread only; two
  /// stores once the rank has used the phase before.
  void set_phase(int rank, PhaseId phase) {
    CAMB_CHECK(rank >= 0 && rank < nprocs_);
    RankSlot& s = slots_[static_cast<std::size_t>(rank)];
    const auto id = static_cast<std::size_t>(phase.value());
    if (id >= s.slot_of.size() || s.slot_of[id] < 0 ||
        (s.slot_of[id] & kNoted) == 0) {
      first_set(rank, phase);
    }
    s.active = phase;
    s.active_slot = s.slot_of[id] >> 1;
  }
  PhaseId phase(int rank) const {
    CAMB_CHECK(rank >= 0 && rank < nprocs_);
    return slots_[static_cast<std::size_t>(rank)].active;
  }

  /// Record a message. Called from the sender's thread; the receive half is
  /// attributed to the receiver's currently active phase at receive time via
  /// record_receive (mailbox bookkeeping keeps both ends exact).
  void record_send(int src, i64 bytes) {
    CAMB_CHECK(src >= 0 && src < nprocs_);
    PhaseCounters& c = active_counters(src);
    c.bytes_sent += bytes;
    c.messages_sent += 1;
  }
  void record_receive(int dst, i64 bytes) {
    CAMB_CHECK(dst >= 0 && dst < nprocs_);
    PhaseCounters& c = active_counters(dst);
    c.bytes_received += bytes;
    c.messages_received += 1;
  }

  /// Totals across all phases for one rank.
  PhaseCounters rank_total(int rank) const;

  /// Counters for one rank in one phase (zero if the phase never ran).
  PhaseCounters rank_phase(int rank, PhaseId phase) const;
  PhaseCounters rank_phase(int rank, const std::string& phase) const;

  /// Max over ranks of received words — the bandwidth-cost word count used to
  /// compare against the lower bounds.  Exact (integer or half-integer) for
  /// every supported dtype.
  double critical_path_received_words() const;

  /// Max over ranks of sent words.
  double critical_path_sent_words() const;

  /// Max over ranks of α-β cost of the rank's total counters.
  double critical_path_cost(const AlphaBeta& machine) const;

  /// Sum over ranks of words sent (total traffic volume on the network).
  double total_words_sent() const;

  /// Max over ranks of received words within a single phase.
  double phase_critical_path_received_words(PhaseId phase) const;
  double phase_critical_path_received_words(const std::string& phase) const;

  /// Every phase any rank of this machine set, in first-use order (per
  /// machine, not the process-wide registry order).
  std::vector<std::string> phases() const;

  /// Reliable-transport counters for one rank.  The mutable accessor follows
  /// the single-writer rules documented on TransportCounters.
  TransportCounters& transport_mut(int rank);
  const TransportCounters& transport(int rank) const;

  /// Sum of transport counters over all ranks (after the run).
  TransportCounters transport_total() const;

  /// Reset all counters (phases keep their labels).
  void reset();

 private:
  /// slot_of entries: (slot index << 1) | kNoted, or -1 for a phase the
  /// rank has neither set nor recorded under.  kNoted marks a phase the
  /// rank has set at least once (and so has already put on phases()); the
  /// initial "default" phase gets a slot without it on its first message.
  static constexpr int kNoted = 1;

  struct alignas(64) RankSlot {
    PhaseId active;
    int active_slot = -1;  ///< index into counters; -1 until first used
    std::vector<int> slot_of;  ///< by PhaseId::value()
    std::vector<PhaseCounters> counters;
    TransportCounters transport;
  };

  PhaseCounters& active_counters(int rank) {
    RankSlot& s = slots_[static_cast<std::size_t>(rank)];
    if (s.active_slot < 0) s.active_slot = add_slot(s, s.active, 0) >> 1;
    return s.counters[static_cast<std::size_t>(s.active_slot)];
  }

  /// A rank's first set_phase of `phase`: give it a counters slot if it has
  /// none, mark it noted, and add its name to phase_order_ once per machine.
  void first_set(int rank, PhaseId phase);

  /// Append a zeroed counters slot for `phase` and return its slot_of entry.
  static int add_slot(RankSlot& s, PhaseId phase, int flags);

  const PhaseCounters* find(int rank, PhaseId phase) const;

  int nprocs_;
  std::vector<RankSlot> slots_;
  std::vector<PhaseId> phase_order_;  // guarded by phase_mutex_
  mutable std::mutex phase_mutex_;
};

}  // namespace camb
