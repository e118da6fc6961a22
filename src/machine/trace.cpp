#include "machine/trace.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>

#include "util/error.hpp"

namespace camb {

Trace::Trace(int nprocs) : nprocs_(nprocs) {
  CAMB_CHECK_MSG(nprocs >= 1, "trace needs at least one processor");
}

void Trace::record(int src, int dst, int tag, i64 bytes, PhaseId phase) {
  const Record event{next_seq_.fetch_add(1), src, dst, tag, bytes, phase};
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

void Trace::record_fault(int src, int dst, int tag, int failed_attempts,
                         double delay, int reorder_skip) {
  FaultEvent event;
  event.seq = next_seq_.fetch_add(1);
  event.src = src;
  event.dst = dst;
  event.tag = tag;
  event.failed_attempts = failed_attempts;
  event.delay = delay;
  event.reorder_skip = reorder_skip;
  std::lock_guard<std::mutex> lock(mutex_);
  fault_events_.push_back(event);
}

void Trace::record_transport(int src, int dst, int tag, i64 bytes,
                             int dropped_copies, int corrupt_copies,
                             bool duplicated) {
  TransportEvent event;
  event.seq = next_seq_.fetch_add(1);
  event.src = src;
  event.dst = dst;
  event.tag = tag;
  event.bytes = bytes;
  event.dropped_copies = dropped_copies;
  event.corrupt_copies = corrupt_copies;
  event.duplicated = duplicated;
  std::lock_guard<std::mutex> lock(mutex_);
  transport_events_.push_back(event);
}

std::vector<TransportEvent> Trace::transport_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TransportEvent> snapshot = transport_events_;
  std::sort(snapshot.begin(), snapshot.end(),
            [](const TransportEvent& a, const TransportEvent& b) {
              return a.seq < b.seq;
            });
  return snapshot;
}

std::size_t Trace::transport_event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transport_events_.size();
}

std::vector<FaultEvent> Trace::fault_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FaultEvent> snapshot = fault_events_;
  std::sort(snapshot.begin(), snapshot.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.seq < b.seq;
            });
  return snapshot;
}

std::size_t Trace::fault_event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fault_events_.size();
}

std::vector<MessageEvent> Trace::materialize(const PhaseId* only) const {
  std::vector<const Record*> picked;
  picked.reserve(only == nullptr ? events_.size() : 0);
  for (const Record& r : events_) {
    if (only == nullptr || r.phase == *only) picked.push_back(&r);
  }
  std::sort(picked.begin(), picked.end(),
            [](const Record* a, const Record* b) { return a->seq < b->seq; });
  // One registry lookup per distinct phase, not per event.
  std::vector<const std::string*> names;
  std::vector<MessageEvent> out;
  out.reserve(picked.size());
  for (const Record* r : picked) {
    const auto id = static_cast<std::size_t>(r->phase.value());
    if (id >= names.size()) names.resize(id + 1, nullptr);
    if (names[id] == nullptr) names[id] = &r->phase.name();
    out.push_back(MessageEvent{r->seq, r->src, r->dst, r->tag, r->bytes,
                               *names[id]});
  }
  return out;
}

std::vector<MessageEvent> Trace::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return materialize(nullptr);
}

std::size_t Trace::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<std::vector<double>> Trace::traffic_matrix() const {
  std::vector<std::vector<i64>> bytes(
      static_cast<std::size_t>(nprocs_),
      std::vector<i64>(static_cast<std::size_t>(nprocs_), 0));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& event : events_) {
      bytes[static_cast<std::size_t>(event.src)]
           [static_cast<std::size_t>(event.dst)] += event.bytes;
    }
  }
  std::vector<std::vector<double>> matrix(
      static_cast<std::size_t>(nprocs_),
      std::vector<double>(static_cast<std::size_t>(nprocs_), 0.0));
  for (std::size_t s = 0; s < bytes.size(); ++s) {
    for (std::size_t d = 0; d < bytes[s].size(); ++d) {
      matrix[s][d] = static_cast<double>(bytes[s][d]) / 8.0;
    }
  }
  return matrix;
}

double Trace::words_between(int src, int dst) const {
  CAMB_CHECK(src >= 0 && src < nprocs_ && dst >= 0 && dst < nprocs_);
  i64 total = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& event : events_) {
    if (event.src == src && event.dst == dst) total += event.bytes;
  }
  return static_cast<double>(total) / 8.0;
}

std::vector<MessageEvent> Trace::events_in_phase(
    const std::string& phase) const {
  const std::optional<PhaseId> id = PhaseId::find(phase);
  if (!id) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  return materialize(&*id);
}

std::vector<int> Trace::partners_of(int rank) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  std::set<int> partners;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& event : events_) {
    if (event.src == rank) partners.insert(event.dst);
    if (event.dst == rank) partners.insert(event.src);
  }
  return std::vector<int>(partners.begin(), partners.end());
}

void Trace::write_csv(const std::string& path) const {
  std::ofstream file(path);
  CAMB_CHECK_MSG(file.good(), "cannot open trace CSV: " + path);
  file << "seq,src,dst,tag,bytes,phase\n";
  for (const auto& event : events()) {
    file << event.seq << ',' << event.src << ',' << event.dst << ','
         << event.tag << ',' << event.bytes << ',' << event.phase << '\n';
  }
  CAMB_CHECK_MSG(file.good(), "error writing trace CSV: " + path);
}

}  // namespace camb
