#include "machine/comm_stats.hpp"

#include <optional>

namespace camb {

CommStats::CommStats(int nprocs) : nprocs_(nprocs), slots_(nprocs) {
  CAMB_CHECK_MSG(nprocs >= 1, "machine needs at least one processor");
}

int CommStats::add_slot(RankSlot& s, PhaseId phase, int flags) {
  // Grown geometrically: a P-rank machine pays a few allocations per rank,
  // not one per phase.
  const auto id = static_cast<std::size_t>(phase.value());
  if (id >= s.slot_of.size()) {
    s.slot_of.resize(std::max(id + 1, 2 * s.slot_of.size()), -1);
  }
  if (s.counters.empty()) s.counters.reserve(4);
  s.slot_of[id] = (static_cast<int>(s.counters.size()) << 1) | flags;
  s.counters.emplace_back();
  return s.slot_of[id];
}

void CommStats::first_set(int rank, PhaseId phase) {
  RankSlot& s = slots_[static_cast<std::size_t>(rank)];
  const auto id = static_cast<std::size_t>(phase.value());
  if (id < s.slot_of.size() && s.slot_of[id] >= 0) {
    s.slot_of[id] |= kNoted;
  } else {
    add_slot(s, phase, kNoted);
  }
  // Once per rank and phase, not per call: the machine-wide first-use list
  // is the only shared state here.
  std::lock_guard<std::mutex> lock(phase_mutex_);
  if (std::find(phase_order_.begin(), phase_order_.end(), phase) ==
      phase_order_.end()) {
    phase_order_.push_back(phase);
  }
}

const PhaseCounters* CommStats::find(int rank, PhaseId phase) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  const RankSlot& s = slots_[static_cast<std::size_t>(rank)];
  const auto id = static_cast<std::size_t>(phase.value());
  if (id >= s.slot_of.size() || s.slot_of[id] < 0) return nullptr;
  return &s.counters[static_cast<std::size_t>(s.slot_of[id] >> 1)];
}

PhaseCounters CommStats::rank_total(int rank) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  PhaseCounters total;
  for (const PhaseCounters& c :
       slots_[static_cast<std::size_t>(rank)].counters) {
    total += c;
  }
  return total;
}

PhaseCounters CommStats::rank_phase(int rank, PhaseId phase) const {
  const PhaseCounters* c = find(rank, phase);
  return c == nullptr ? PhaseCounters{} : *c;
}

PhaseCounters CommStats::rank_phase(int rank, const std::string& phase) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  const std::optional<PhaseId> id = PhaseId::find(phase);
  return id ? rank_phase(rank, *id) : PhaseCounters{};
}

double CommStats::critical_path_received_words() const {
  i64 worst = 0;
  for (int r = 0; r < nprocs_; ++r) {
    worst = std::max(worst, rank_total(r).bytes_received);
  }
  return static_cast<double>(worst) / 8.0;
}

double CommStats::critical_path_sent_words() const {
  i64 worst = 0;
  for (int r = 0; r < nprocs_; ++r) {
    worst = std::max(worst, rank_total(r).bytes_sent);
  }
  return static_cast<double>(worst) / 8.0;
}

double CommStats::critical_path_cost(const AlphaBeta& machine) const {
  double worst = 0.0;
  for (int r = 0; r < nprocs_; ++r) {
    worst = std::max(worst, machine.cost(rank_total(r)));
  }
  return worst;
}

double CommStats::total_words_sent() const {
  i64 total = 0;
  for (int r = 0; r < nprocs_; ++r) total += rank_total(r).bytes_sent;
  return static_cast<double>(total) / 8.0;
}

double CommStats::phase_critical_path_received_words(PhaseId phase) const {
  i64 worst = 0;
  for (int r = 0; r < nprocs_; ++r) {
    worst = std::max(worst, rank_phase(r, phase).bytes_received);
  }
  return static_cast<double>(worst) / 8.0;
}

double CommStats::phase_critical_path_received_words(
    const std::string& phase) const {
  const std::optional<PhaseId> id = PhaseId::find(phase);
  return id ? phase_critical_path_received_words(*id) : 0.0;
}

std::vector<std::string> CommStats::phases() const {
  std::lock_guard<std::mutex> lock(phase_mutex_);
  std::vector<std::string> names;
  names.reserve(phase_order_.size());
  for (PhaseId id : phase_order_) names.push_back(id.name());
  return names;
}

TransportCounters& CommStats::transport_mut(int rank) {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  return slots_[rank].transport;
}

const TransportCounters& CommStats::transport(int rank) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  return slots_[rank].transport;
}

TransportCounters CommStats::transport_total() const {
  TransportCounters total;
  for (int r = 0; r < nprocs_; ++r) total += slots_[r].transport;
  return total;
}

void CommStats::reset() {
  for (auto& slot : slots_) {
    std::fill(slot.counters.begin(), slot.counters.end(), PhaseCounters{});
    slot.transport = TransportCounters{};
  }
}

}  // namespace camb
