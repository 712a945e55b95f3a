#include "compose/telemetry.hpp"

#include <utility>

#include "sim/simulator.hpp"

namespace ooc::compose {

std::string roundLabel(Round m) {
  return m <= kLastRoundLabel ? std::to_string(m)
                              : std::to_string(kLastRoundLabel + 1) + '+';
}

obs::Labels withLabel(obs::Labels base, const char* key, std::string value) {
  base.emplace_back(key, std::move(value));
  return base;
}

void RoundTally::publish(const char* name, const obs::Labels& labels,
                         obs::Batch& batch) const {
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    if (counts_[slot] > 0)
      batch.addCounter(name, counts_[slot],
                       withLabel(labels, "round",
                                 roundLabel(static_cast<Round>(slot))));
  }
}

void publishTransitions(const TransitionTally& tally, const obs::Labels& base,
                        obs::Batch& batch) {
  for (const Confidence confidence :
       {Confidence::kVacillate, Confidence::kAdopt, Confidence::kCommit}) {
    tally[static_cast<std::size_t>(confidence)].publish(
        "confidence_transitions",
        withLabel(base, "confidence", toString(confidence)), batch);
  }
}

void publishSimMetrics(const Simulator& sim, const obs::Labels& base,
                       obs::Batch& batch) {
  batch.addCounter("runs", 1, base);
  batch.addCounter("events_executed", sim.eventsProcessed(), base);
  batch.addCounter("messages_sent", sim.messagesSent(), base);
  batch.addCounter("messages_delivered", sim.messagesDelivered(), base);
  batch.addCounter("messages_dropped", sim.messagesDropped(), base);
  batch.addCounter("messages_duplicated", sim.messagesDuplicated(), base);
  batch.addCounter("timers_armed", sim.timersArmed(), base);
  batch.addCounter("timers_cancelled", sim.timersCancelled(), base);
  batch.addCounter("timers_fired", sim.timersFired(), base);
  batch.addCounter("restarts", sim.restarts(), base);
  batch.addCounter("messages_dropped_stale", sim.messagesDroppedStale(),
                   base);
  batch.addCounter("timers_purged_on_crash", sim.timersPurgedOnCrash(),
                   base);
}

void publishDecisionTicks(const Simulator& sim, const obs::Labels& base,
                          obs::Batch& batch) {
  for (ProcessId id = 0; id < sim.processCount(); ++id) {
    if (sim.faulty(id)) continue;
    const auto& decision = sim.decision(id);
    if (decision.decided)
      batch.observe("ticks_to_decide", static_cast<double>(decision.at),
                    base);
  }
}

void publishTemplateMetrics(const std::vector<ConsensusProcess*>& processes,
                            const obs::Labels& base, obs::Batch& batch) {
  TransitionTally transitions;
  RoundTally drives;
  for (const ConsensusProcess* process : processes) {
    if (process == nullptr) continue;
    Round m = 0;
    for (const RoundRecord& record : process->rounds()) {
      ++m;
      if (record.detectorOutcome) {
        transitions[static_cast<std::size_t>(
                        record.detectorOutcome->confidence)]
            .add(m);
      }
      if (record.driverValue) drives.add(m);
    }
    if (process->decided())
      batch.observe("rounds_to_decide",
                    static_cast<double>(process->decisionRound()), base);
  }
  publishTransitions(transitions, base, batch);
  drives.publish("driver_invocations", base, batch);
}

}  // namespace ooc::compose
