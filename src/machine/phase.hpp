// phase.hpp — interned phase labels for per-phase accounting.
//
// Every counted message is attributed to the active phase of its sender
// (and, on receipt, of its receiver).  Phases are named by short strings
// ("summa_bcast_A"), but the message path never touches a string: each name
// is interned once into a process-wide registry and travels as a PhaseId, a
// small integer.  CommStats indexes its counters by it, Message and Trace
// carry it, and names are looked up only where they leave the machine
// (Trace::events, leak reports, CommStats::phases).
//
// Ids are process-wide and assigned in first-registration order, so their
// values depend on static-initialization order and carry no meaning; only
// equality does.  Id 0 is "default", the phase every rank starts in.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace camb {

class PhaseId {
 public:
  /// The "default" phase.
  constexpr PhaseId() = default;

  /// Intern `name`: the first registration in the process assigns the next
  /// id, every later one (from any thread) returns it.  Repeat lookups of a
  /// name on one thread are served from a per-thread memo without taking
  /// the registry lock.
  explicit PhaseId(std::string_view name);

  /// The id of `name` if it was ever interned, without registering it.
  static std::optional<PhaseId> find(std::string_view name);

  /// Dense index, for tables keyed by phase.
  int value() const { return id_; }

  /// The interned name; the reference stays valid for the whole process.
  const std::string& name() const;

  friend bool operator==(PhaseId, PhaseId) = default;

 private:
  int id_ = 0;
};

}  // namespace camb
