// Per-run telemetry publication, shared by runComposition() and the
// bespoke runners that remain in src/harness/ (monolithic baselines,
// Raft). Each runner checks obs::enabled() once per run, publishes into
// one obs::Batch and commits it, so a disabled-telemetry sweep pays one
// relaxed atomic load per run and an enabled one one registry lock.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/confidence.hpp"
#include "core/consensus_process.hpp"
#include "obs/metrics.hpp"
#include "util/types.hpp"

namespace ooc {
class Simulator;
}

namespace ooc::compose {

/// Rounds up to this one get a `round` label of their own; later rounds
/// share the tail label "33+".
inline constexpr Round kLastRoundLabel = 32;

/// Bounds the `round` label cardinality: long runs (Ben-Or can take
/// hundreds of rounds on adversarial seeds) collapse into one tail label.
std::string roundLabel(Round m);

obs::Labels withLabel(obs::Labels base, const char* key, std::string value);

/// One run's counts of a per-round counter, tallied by round label before
/// any label vector is built: rounds past kLastRoundLabel share the tail
/// slot, so each series costs one batch update per run however long the
/// run is.
class RoundTally {
 public:
  void add(Round m) { ++counts_[m < kSlots ? m : kSlots - 1]; }
  /// Adds each nonzero count to `name` under `labels` plus its round label.
  void publish(const char* name, const obs::Labels& labels,
               obs::Batch& batch) const;

 private:
  /// Rounds 0..kLastRoundLabel, then the tail.
  static constexpr std::size_t kSlots = kLastRoundLabel + 2;
  std::array<std::uint64_t, kSlots> counts_{};
};

/// `confidence_transitions` tallies of one run, indexed by Confidence.
using TransitionTally = std::array<RoundTally, 3>;
void publishTransitions(const TransitionTally& tally, const obs::Labels& base,
                        obs::Batch& batch);

/// Simulator/network counters of one run under `base` labels.
void publishSimMetrics(const Simulator& sim, const obs::Labels& base,
                       obs::Batch& batch);

/// Decision latency in simulated ticks, one sample per decided process.
void publishDecisionTicks(const Simulator& sim, const obs::Labels& base,
                          obs::Batch& batch);

/// Per-round object telemetry of template processes: VAC/AC confidence
/// transition counts keyed by (confidence, round), driver invocation
/// counts, and the rounds-to-decide distribution. Null entries (Byzantine
/// slots) are skipped.
void publishTemplateMetrics(const std::vector<ConsensusProcess*>& processes,
                            const obs::Labels& base, obs::Batch& batch);

}  // namespace ooc::compose
