#include "core/scheduling.hpp"

namespace ooc {

const char* toString(SchedulingPolicy policy) noexcept {
  switch (policy) {
    case SchedulingPolicy::kLockstep: return "lockstep";
    case SchedulingPolicy::kEventDriven: return "event-driven";
    case SchedulingPolicy::kOooDriver: return "ooo-driver";
  }
  return "?";
}

std::optional<SchedulingPolicy> parseSchedulingPolicy(
    const std::string& name) noexcept {
  if (name == "lockstep") return SchedulingPolicy::kLockstep;
  if (name == "event-driven") return SchedulingPolicy::kEventDriven;
  if (name == "ooo-driver") return SchedulingPolicy::kOooDriver;
  return std::nullopt;
}

}  // namespace ooc
