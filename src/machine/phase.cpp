#include "machine/phase.hpp"

#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>

namespace camb {
namespace {

struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const {
    return std::hash<std::string_view>{}(name);
  }
};

using NameMap = std::unordered_map<std::string, int, NameHash, std::equal_to<>>;

/// The process-wide table.  Names live in a deque so the references handed
/// out by PhaseId::name() survive later registrations.
struct Registry {
  std::mutex mutex;
  NameMap ids;
  std::deque<std::string> names;

  Registry() {
    names.emplace_back("default");
    ids.emplace(names.back(), 0);
  }
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

PhaseId::PhaseId(std::string_view name) {
  // Name-to-id bindings never change once made, so a per-thread memo can
  // answer repeats without the registry lock (the string-API set_phase path
  // calls this once per phase switch).
  thread_local NameMap memo;
  if (auto it = memo.find(name); it != memo.end()) {
    id_ = it->second;
    return;
  }
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.ids.find(name);
    if (it == reg.ids.end()) {
      reg.names.emplace_back(name);
      it = reg.ids.emplace(reg.names.back(),
                           static_cast<int>(reg.names.size() - 1))
               .first;
    }
    id_ = it->second;
  }
  memo.emplace(std::string(name), id_);
}

std::optional<PhaseId> PhaseId::find(std::string_view name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto it = reg.ids.find(name);
  if (it == reg.ids.end()) return std::nullopt;
  PhaseId id;
  id.id_ = it->second;
  return id;
}

const std::string& PhaseId::name() const {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.names[static_cast<std::size_t>(id_)];
}

}  // namespace camb
