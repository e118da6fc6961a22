// trace.hpp — optional per-message event tracing for the simulated machine.
//
// When enabled, every network send is recorded with its envelope, size, the
// sender's active phase, and a global sequence number.  Traces answer the
// questions aggregate counters cannot: which *pairs* of ranks exchange how
// much (the traffic matrix — e.g. showing Algorithm 1's fiber structure),
// what a collective's round schedule actually looked like, and whether two
// phases overlapped traffic.  Records keep the sender's interned PhaseId;
// phase names are looked up only when events leave the trace (events(),
// events_in_phase, write_csv).  Off by default: the log grows per message.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "machine/phase.hpp"
#include "util/math.hpp"

namespace camb {

/// One recorded message.
struct MessageEvent {
  std::uint64_t seq = 0;  ///< global order of sends (atomic counter)
  int src = -1;
  int dst = -1;
  int tag = 0;
  i64 bytes = 0;      ///< exact payload size (elems x elem width)
  std::string phase;  ///< sender's active phase at send time

  /// Payload size in 8-byte words (exact halves for 4-byte scalars).
  double words() const { return static_cast<double>(bytes) / 8.0; }
};

/// One recorded fault injection (delay, retry burst, or reordering applied
/// to a send by the fault layer).  Shares the sequence counter with
/// MessageEvent, so fault events interleave with the message log.
struct FaultEvent {
  std::uint64_t seq = 0;
  int src = -1;
  int dst = -1;
  int tag = 0;
  int failed_attempts = 0;  ///< transient failures absorbed by retries
  double delay = 0.0;       ///< injected delivery delay (clock units)
  int reorder_skip = 0;     ///< queue positions the message jumped
};

/// One recorded reliable-transport repair (machine/reliable.hpp): a send
/// whose copies were dropped, corrupted, or duplicated on the wire.  Shares
/// the sequence counter with MessageEvent, so transport events interleave
/// with the message log and a phase-trace reader sees retransmits in send
/// order.
struct TransportEvent {
  std::uint64_t seq = 0;
  int src = -1;
  int dst = -1;
  int tag = 0;
  i64 bytes = 0;            ///< payload bytes per copy
  int dropped_copies = 0;   ///< copies lost in flight
  int corrupt_copies = 0;   ///< copies delivered corrupted and nacked
  bool duplicated = false;  ///< the clean copy was delivered twice
};

class Trace {
 public:
  explicit Trace(int nprocs);

  int nprocs() const { return nprocs_; }

  /// Record one send (thread-safe; called by the network).
  void record(int src, int dst, int tag, i64 bytes, PhaseId phase);

  /// Record one fault injection (thread-safe; called by the network when a
  /// fault plan perturbed the matching send).
  void record_fault(int src, int dst, int tag, int failed_attempts,
                    double delay, int reorder_skip);

  /// Record one reliable-transport repair (thread-safe; called by the
  /// network when SDC injection touched the matching send).
  void record_transport(int src, int dst, int tag, i64 bytes,
                        int dropped_copies, int corrupt_copies,
                        bool duplicated);

  /// Snapshot of all fault events in sequence order.
  std::vector<FaultEvent> fault_events() const;

  std::size_t fault_event_count() const;

  /// Snapshot of all transport events in sequence order.
  std::vector<TransportEvent> transport_events() const;

  std::size_t transport_event_count() const;

  /// Snapshot of all events in sequence order.
  std::vector<MessageEvent> events() const;

  std::size_t event_count() const;

  /// words[src][dst] — total words sent from src to dst (exact halves for
  /// 4-byte scalars; integer-valued for f64 traffic).
  std::vector<std::vector<double>> traffic_matrix() const;

  /// Total words from a to b (directed).
  double words_between(int src, int dst) const;

  /// Events recorded under one phase label.
  std::vector<MessageEvent> events_in_phase(const std::string& phase) const;

  /// Distinct communication partners of a rank (union of in and out).
  std::vector<int> partners_of(int rank) const;

  /// Write the full event log as CSV (seq,src,dst,tag,bytes,phase).
  void write_csv(const std::string& path) const;

 private:
  int nprocs_;
  mutable std::mutex mutex_;
  std::atomic<std::uint64_t> next_seq_{0};
  /// A MessageEvent with the phase still interned.
  struct Record {
    std::uint64_t seq = 0;
    int src = -1;
    int dst = -1;
    int tag = 0;
    i64 bytes = 0;
    PhaseId phase;
  };

  /// Records in seq order, names looked up (caller holds mutex_).
  std::vector<MessageEvent> materialize(const PhaseId* only) const;

  std::vector<Record> events_;
  std::vector<FaultEvent> fault_events_;
  std::vector<TransportEvent> transport_events_;
};

}  // namespace camb
