#include "compose/telemetry.hpp"

#include <utility>

#include "sim/simulator.hpp"

namespace ooc::compose {

std::string roundLabel(Round m) {
  return m <= 32 ? std::to_string(m) : std::string("33+");
}

obs::Labels withLabel(obs::Labels base, const char* key, std::string value) {
  base.emplace_back(key, std::move(value));
  return base;
}

void publishSimMetrics(const Simulator& sim, const obs::Labels& base) {
  auto& registry = obs::metrics();
  registry.addCounter("runs", 1, base);
  registry.addCounter("events_executed", sim.eventsProcessed(), base);
  registry.addCounter("messages_sent", sim.messagesSent(), base);
  registry.addCounter("messages_delivered", sim.messagesDelivered(), base);
  registry.addCounter("messages_dropped", sim.messagesDropped(), base);
  registry.addCounter("messages_duplicated", sim.messagesDuplicated(), base);
  registry.addCounter("timers_armed", sim.timersArmed(), base);
  registry.addCounter("timers_cancelled", sim.timersCancelled(), base);
  registry.addCounter("timers_fired", sim.timersFired(), base);
  registry.addCounter("restarts", sim.restarts(), base);
  registry.addCounter("messages_dropped_stale", sim.messagesDroppedStale(),
                      base);
  registry.addCounter("timers_purged_on_crash", sim.timersPurgedOnCrash(),
                      base);
}

void publishDecisionTicks(const Simulator& sim, const obs::Labels& base) {
  auto& registry = obs::metrics();
  for (ProcessId id = 0; id < sim.processCount(); ++id) {
    if (sim.faulty(id)) continue;
    const auto& decision = sim.decision(id);
    if (decision.decided)
      registry.observe("ticks_to_decide", static_cast<double>(decision.at),
                       base);
  }
}

void publishTemplateMetrics(const std::vector<ConsensusProcess*>& processes,
                            const obs::Labels& base) {
  auto& registry = obs::metrics();
  for (const ConsensusProcess* process : processes) {
    if (process == nullptr) continue;
    Round m = 0;
    for (const RoundRecord& record : process->rounds()) {
      ++m;
      if (record.detectorOutcome) {
        registry.addCounter(
            "confidence_transitions", 1,
            withLabel(withLabel(base, "confidence",
                                toString(record.detectorOutcome->confidence)),
                      "round", roundLabel(m)));
      }
      if (record.driverValue)
        registry.addCounter("driver_invocations", 1,
                            withLabel(base, "round", roundLabel(m)));
    }
    if (process->decided())
      registry.observe("rounds_to_decide",
                       static_cast<double>(process->decisionRound()), base);
  }
}

}  // namespace ooc::compose
