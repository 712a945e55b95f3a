// The Composition spec: one detector × driver pairing plus the run
// parameters, as a plain value type. This is what the paper calls an
// algorithm — "a consensus algorithm is obtained by composing objects" —
// made literal: the pairing is data, resolved against the registry at run
// time, not a code path.
//
// Two interchange forms, both strict (malformed input throws):
//   * CLI spec strings:  "benor-vac+local-coin"
//   * key=value blocks:  the scenario/counterexample wire format
//     (family=compose in src/check/), over compose/kv.hpp
//
// Both parse paths re-validate the pairing against the registry, so a
// rejected composition carries the same capability diagnostic whether it
// arrives from a flag or from a counterexample file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compose/hooks.hpp"
#include "compose/registry.hpp"
#include "util/types.hpp"

namespace ooc::compose {

struct Composition {
  /// Registry names of the paired objects.
  std::string detector = "benor-vac";
  std::string driver = "local-coin";

  std::size_t n = 5;
  /// Protocol parameter t; defaults to floor((n-1)/tDivisor) of the
  /// detector's capability descriptor.
  std::optional<std::size_t> t;
  /// Number of planted faulty processes (Byzantine-model detectors only).
  std::size_t byzantineCount = 0;
  /// Attacker strategy name, interpreted by the detector's makeFaulty hook.
  std::string byzantineStrategy = "equivocate";
  Placement placement = Placement::kFront;

  /// Inputs for correct processes, by their order among correct ids; the
  /// pattern repeats when shorter than the correct count, and an empty
  /// vector means alternating 0,1.
  std::vector<Value> inputs;
  std::uint64_t seed = 1;
  double bias = 0.5;  // biased-coin probability of 1

  /// (process, tick) crash schedule (asynchronous runs).
  std::vector<std::pair<ProcessId, Tick>> crashes;
  Tick minDelay = 1;
  Tick maxDelay = 10;
  /// Message-reordering adversary (model checker strategies; async only).
  AdversaryOptions adversary;

  /// Decision rule for adopt-commit detectors: the template's
  /// decide-on-commit rule is unsound for Phase-King under a hostile king
  /// (see EXPERIMENTS.md, "the early-decision gap"), so the default
  /// decides after t+1 completed rounds; set earlyCommitDecision for the
  /// paper-faithful corner. Ignored for VAC detectors (Algorithm 1 always
  /// decides on commit).
  bool earlyCommitDecision = false;

  Round maxRounds = 5000;
  Tick maxTicks = 5'000'000;

  /// Test-only planted detector bug (model-checker self-test).
  PlantedFault fault = PlantedFault::kNone;

  /// Round-scheduling policy (core/scheduling.hpp). The role is zero-cost
  /// on the wire for the default: nothing is serialized when lockstep, so
  /// every pre-policy golden and counterexample stays byte-identical.
  /// Non-lockstep policies are capability-gated by the registry's
  /// validateScheduling() (async-mode, skew-tolerant objects only).
  SchedulingPolicy scheduler = SchedulingPolicy::kLockstep;

  /// Failure-detector oracle (registry name) for oracle-guided drivers;
  /// empty for everything else. The role is zero-cost for oracle-free
  /// pairings: nothing is serialized and nothing runs when empty.
  std::string oracle;
  /// Oracle quality knobs (serialized only when an oracle is attached).
  fd::OracleKnobs oracleKnobs;
};

/// A Composition with its registry entries and derived run shape resolved.
/// Obtained via resolve(); holding one implies the pairing is valid.
struct ResolvedComposition {
  const DetectorEntry* detector = nullptr;
  const DriverEntry* driver = nullptr;
  /// Non-null exactly when the composition attaches an oracle.
  const OracleEntry* oracle = nullptr;
  std::size_t t = 0;
  bool lockstep = false;
  /// Every process joins the drive wave each round (lockstep algorithms,
  /// quorum-waiting drivers such as the lottery, and the ooo-driver
  /// policy, whose whole point is a detached drive wave every round).
  bool alwaysRunDriver = false;
  SchedulingPolicy scheduling = SchedulingPolicy::kLockstep;
};

/// The one gate every composition passes: unknown names, the registry's
/// pairing, oracle and scheduling checks, then the run parameters.
/// Returns nullopt when the composition is an algorithm, otherwise the
/// diagnostic — never throws for an invalid composition.
std::optional<std::string> validate(const Composition& composition);

/// Resolves the names against the registry after validate(); throws
/// std::invalid_argument with validate()'s diagnostic on an invalid
/// composition.
ResolvedComposition resolve(const Composition& composition);

/// "detector+driver" CLI spec, e.g. "benor-vac+timer". Whitespace around
/// either name is trimmed; a missing '+' or empty side throws. The oracle
/// (with its quality knobs) joins the composition before the validating
/// resolve, so an oracle-consuming driver paired via --oracle is accepted
/// and an incoherent attachment throws the registry diagnostic here.
Composition parseSpec(const std::string& spec, const std::string& oracle = "",
                      const fd::OracleKnobs& oracleKnobs = {});

/// key=value wire format (stamped with `# run-id=`), the family=compose
/// payload of serialized scenarios and counterexamples. parseComposition
/// re-validates the pairing: a rejected pairing loaded from a file throws
/// the same diagnostic the CLI prints.
std::string serialize(const Composition& composition);
Composition parseComposition(const std::string& text);

}  // namespace ooc::compose
