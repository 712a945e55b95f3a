#include "check/shrink.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace ooc::check {
namespace {

bool allEqual(const std::vector<Value>& values) {
  return std::adjacent_find(values.begin(), values.end(),
                            std::not_equal_to<>()) == values.end();
}

void dropCrashesAbove(std::vector<std::pair<ProcessId, Tick>>& crashes,
                      std::size_t n) {
  std::erase_if(crashes,
                [n](const auto& crash) { return crash.first >= n; });
}

template <typename Config>
void eachCrashReduction(const Scenario& base, const Config& config,
                        Config Scenario::* member,
                        std::vector<Scenario>& out) {
  for (std::size_t i = 0; i < config.crashes.size(); ++i) {
    Scenario candidate = base;
    auto& crashes = (candidate.*member).crashes;
    crashes.erase(crashes.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(candidate));
  }
  for (std::size_t i = 0; i < config.crashes.size(); ++i) {
    if (config.crashes[i].second <= 1) continue;
    Scenario candidate = base;
    auto& crash = (candidate.*member).crashes[i];
    crash.second = std::max<Tick>(1, crash.second / 2);
    out.push_back(std::move(candidate));
  }
}

/// Restart reductions: drop each event, then pull each event earlier and
/// shorten each downtime (smaller schedules first).
template <typename Config>
void eachRestartReduction(const Scenario& base, const Config& config,
                          Config Scenario::* member,
                          std::vector<Scenario>& out) {
  for (std::size_t i = 0; i < config.restarts.size(); ++i) {
    Scenario candidate = base;
    auto& restarts = (candidate.*member).restarts;
    restarts.erase(restarts.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(candidate));
  }
  for (std::size_t i = 0; i < config.restarts.size(); ++i) {
    if (config.restarts[i].at > 1) {
      Scenario candidate = base;
      auto& event = (candidate.*member).restarts[i];
      event.at = std::max<Tick>(1, event.at / 2);
      out.push_back(std::move(candidate));
    }
    if (config.restarts[i].downtime > 1) {
      Scenario candidate = base;
      auto& event = (candidate.*member).restarts[i];
      event.downtime = std::max<Tick>(1, event.downtime / 2);
      out.push_back(std::move(candidate));
    }
  }
}

void eachAdversaryReduction(const Scenario& base,
                            const compose::AdversaryOptions& adversary,
                            std::vector<Scenario>& out, Family family) {
  if (!adversary.enabled()) return;
  const auto set = [&](Tick budget) {
    Scenario candidate = base;
    auto& target = family == Family::kRaft  ? candidate.raft.adversary
                   : family == Family::kSvc ? candidate.svc.adversary
                                            : candidate.compose.adversary;
    target.extraDelayMax = budget;
    out.push_back(std::move(candidate));
  };
  set(0);
  if (adversary.extraDelayMax > 1) set(adversary.extraDelayMax / 2);
}

void eachInputSimplification(const Scenario& base,
                             const std::vector<Value>& inputs,
                             std::vector<Scenario>& out, Family family) {
  if (inputs.empty() || allEqual(inputs)) return;
  for (const Value v : {Value{0}, Value{1}}) {
    Scenario candidate = base;
    std::vector<Value>* target = nullptr;
    switch (family) {
      case Family::kRaft: target = &candidate.raft.inputs; break;
      case Family::kCompose: target = &candidate.compose.inputs; break;
      case Family::kSvc: return;  // the service has no input vector
    }
    std::fill(target->begin(), target->end(), v);
    out.push_back(std::move(candidate));
  }
}

/// All one-step reductions of `base`, most aggressive first.
std::vector<Scenario> reductions(const Scenario& base) {
  std::vector<Scenario> out;
  switch (base.family) {
    case Family::kRaft: {
      const auto& config = base.raft;
      eachCrashReduction(base, config, &Scenario::raft, out);
      eachRestartReduction(base, config, &Scenario::raft, out);
      for (std::size_t i = 0; i < config.partitions.size(); ++i) {
        Scenario candidate = base;
        auto& partitions = candidate.raft.partitions;
        partitions.erase(partitions.begin() +
                         static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(candidate));
      }
      if (config.n > 3) {
        Scenario candidate = base;
        auto& c = candidate.raft;
        --c.n;
        if (!c.inputs.empty()) c.inputs.resize(c.n);
        dropCrashesAbove(c.crashes, c.n);
        std::erase_if(c.restarts,
                      [&c](const auto& event) { return event.id >= c.n; });
        for (auto& partition : c.partitions)
          if (partition.groups.size() > c.n) partition.groups.resize(c.n);
        out.push_back(std::move(candidate));
      }
      if (config.dropProbability > 0.0) {
        Scenario candidate = base;
        candidate.raft.dropProbability = 0.0;
        out.push_back(std::move(candidate));
      }
      if (config.duplicateProbability > 0.0) {
        Scenario candidate = base;
        candidate.raft.duplicateProbability = 0.0;
        out.push_back(std::move(candidate));
      }
      if (config.maxDelay > config.minDelay) {
        Scenario candidate = base;
        candidate.raft.maxDelay = config.minDelay;
        out.push_back(std::move(candidate));
      }
      eachAdversaryReduction(base, config.adversary, out, Family::kRaft);
      eachInputSimplification(base, config.inputs, out, Family::kRaft);
      break;
    }
    case Family::kCompose: {
      const auto& config = base.compose;
      eachCrashReduction(base, config, &Scenario::compose, out);
      // Scheduler reduction: a counterexample that survives under the
      // lockstep policy doesn't need round skew to manifest — try the
      // synchronized schedule before blaming the scheduling policy. (The
      // ooo-driver → event-driven step is not a reduction: the policies
      // are siblings, not a ladder.)
      if (config.scheduler != SchedulingPolicy::kLockstep) {
        Scenario candidate = base;
        candidate.compose.scheduler = SchedulingPolicy::kLockstep;
        out.push_back(std::move(candidate));
      }
      // Oracle-quality reductions: a counterexample that survives with a
      // quieter/faster oracle is a stronger counterexample.
      if (!config.oracle.empty()) {
        if (config.oracleKnobs.noise > 0.0) {
          Scenario candidate = base;
          candidate.compose.oracleKnobs.noise = 0.0;
          out.push_back(std::move(candidate));
        }
        if (config.oracleKnobs.stabilizeAt > 0) {
          Scenario candidate = base;
          candidate.compose.oracleKnobs.stabilizeAt = 0;
          out.push_back(std::move(candidate));
          candidate = base;
          candidate.compose.oracleKnobs.stabilizeAt /= 2;
          out.push_back(std::move(candidate));
        }
        if (config.oracleKnobs.completenessLag > 1) {
          Scenario candidate = base;
          candidate.compose.oracleKnobs.completenessLag /= 2;
          out.push_back(std::move(candidate));
        }
      }
      if (config.byzantineCount > 0) {
        Scenario candidate = base;
        --candidate.compose.byzantineCount;
        out.push_back(std::move(candidate));
      }
      if (config.n > 4) {
        Scenario candidate = base;
        auto& c = candidate.compose;
        --c.n;
        c.t.reset();  // recompute the default threshold for the new n
        if (c.byzantineCount >= c.n) c.byzantineCount = c.n - 1;
        dropCrashesAbove(c.crashes, c.n);
        out.push_back(std::move(candidate));
      }
      if (config.maxDelay > config.minDelay) {
        Scenario candidate = base;
        candidate.compose.maxDelay = config.minDelay;
        out.push_back(std::move(candidate));
        const Tick mid = (config.minDelay + config.maxDelay) / 2;
        if (mid != config.minDelay && mid != config.maxDelay) {
          candidate = base;
          candidate.compose.maxDelay = mid;
          out.push_back(std::move(candidate));
        }
      }
      eachAdversaryReduction(base, config.adversary, out, Family::kCompose);
      eachInputSimplification(base, config.inputs, out, Family::kCompose);
      break;
    }
    case Family::kSvc: {
      const auto& config = base.svc;
      eachCrashReduction(base, config, &Scenario::svc, out);
      eachRestartReduction(base, config, &Scenario::svc, out);
      // Shallower pipeline, smaller batches, less traffic: a finding that
      // survives with window=1 batch=1 is nearly the sequential log.
      if (config.service.window > 1) {
        Scenario candidate = base;
        candidate.svc.service.window = config.service.window / 2;
        out.push_back(std::move(candidate));
      }
      if (config.service.batchMax > 1) {
        Scenario candidate = base;
        candidate.svc.service.batchMax = config.service.batchMax / 2;
        out.push_back(std::move(candidate));
      }
      if (config.workload.commandsPerNode > 2) {
        Scenario candidate = base;
        candidate.svc.workload.commandsPerNode =
            config.workload.commandsPerNode / 2;
        out.push_back(std::move(candidate));
      }
      if (config.n > 3) {
        Scenario candidate = base;
        auto& c = candidate.svc;
        --c.n;
        dropCrashesAbove(c.crashes, c.n);
        std::erase_if(c.restarts,
                      [&c](const auto& event) { return event.id >= c.n; });
        out.push_back(std::move(candidate));
      }
      if (config.maxDelay > config.minDelay) {
        Scenario candidate = base;
        candidate.svc.maxDelay = config.minDelay;
        out.push_back(std::move(candidate));
      }
      eachAdversaryReduction(base, config.adversary, out, Family::kSvc);
      break;
    }
  }
  return out;
}

}  // namespace

ShrinkResult shrinkCounterexample(Scenario scenario,
                                  const Invariant& invariant,
                                  const ShrinkOptions& options) {
  ShrinkResult result;
  result.scenario = std::move(scenario);
  bool progress = true;
  while (progress && result.attempts < options.maxAttempts) {
    progress = false;
    for (Scenario& candidate : reductions(result.scenario)) {
      if (result.attempts >= options.maxAttempts) break;
      ++result.attempts;
      if (invariant.check(candidate, runScenario(candidate)).has_value()) {
        result.scenario = std::move(candidate);
        ++result.accepted;
        progress = true;
        break;  // restart the pass from the smaller scenario
      }
    }
  }
  return result;
}

}  // namespace ooc::check
