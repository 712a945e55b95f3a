// Run instrumentation shared by every scenario runner: the telemetry sink
// and schedule-observer hooks, the delay adversary options, and the
// Byzantine placement policy. They sit with the generic runComposition()
// engine, the lowest runner layer; the harness baselines, Raft and the
// replicated-log service use the same types.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "util/types.hpp"

namespace ooc {
class ScheduleObserver;
class NetworkModel;
struct Outcome;
}  // namespace ooc

namespace ooc::compose {

/// Rich protocol-event tap: receives the object-level moments the schedule
/// trace cannot see — detector outcomes (confidence transitions) and driver
/// returns, with their simulated tick. Implemented by the `ooc timeline`
/// renderer and metric collectors. Observation only: sinks must not
/// influence the run.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  /// Round `round`'s detector invocation returned `outcome` at `process`.
  /// For Raft the "round" is the term of the confidence transition.
  virtual void onDetectorOutcome(ProcessId process, Round round,
                                 const Outcome& outcome, Tick at) = 0;
  /// Round `round`'s driver (reconciliator/conciliator) returned `value`.
  virtual void onDriverValue(ProcessId process, Round round, Value value,
                             Tick at) = 0;
  /// An oracle-guided driver queried the failure-detector oracle: `viewer`
  /// asked about `target` at tick `at` and was answered suspected (true)
  /// or trusted (false). Default no-op so existing sinks opt in lazily;
  /// fires only when a sink is attached (the tap decorator costs the bare
  /// run nothing — see runComposition()).
  virtual void onOracleQuery(ProcessId viewer, ProcessId target,
                             bool suspected, Tick at) {
    (void)viewer;
    (void)target;
    (void)suspected;
    (void)at;
  }
};

/// Optional instrumentation threaded through a scenario run. Not part of
/// the serializable configuration: hooks are attached by the caller (the
/// model checker's trace recorder/verifier, the timeline renderer) and
/// never affect the schedule.
struct RunHooks {
  ScheduleObserver* observer = nullptr;
  TelemetrySink* telemetry = nullptr;
};

/// Delay-bounded adversarial rescheduling for asynchronous scenarios: when
/// extraDelayMax > 0 the run's network is wrapped in a DelayAdversaryNetwork
/// that stretches each delivery by up to extraDelayMax extra ticks with
/// probability perturbProbability. The adversary draws from its own seed so
/// schedules can be swept while the protocol's randomness stays fixed.
struct AdversaryOptions {
  Tick extraDelayMax = 0;
  double perturbProbability = 1.0;
  std::uint64_t seed = 1;

  bool enabled() const noexcept { return extraDelayMax > 0; }
};

/// Where planted faulty (Byzantine) ids sit among [0, n). Kings rotate
/// from id 0, so front placement gives the adversary the first reigns.
enum class Placement { kFront, kBack, kSpread };

const char* toString(Placement placement) noexcept;
Placement parsePlacement(const std::string& name);

/// Deliberately planted detector bugs, behind a test-only hook: the model
/// checker must be able to prove it catches real violations.
enum class PlantedFault {
  kNone,
  /// Odd-id processes flip the value of every adopt-level detector
  /// outcome, violating VAC coherence over vacillate & adopt.
  kVacAdoptFlip,
};

const char* toString(PlantedFault fault) noexcept;
PlantedFault parsePlantedFault(const std::string& name);

/// Applies the configured message-reordering adversary, if any.
std::unique_ptr<NetworkModel> wrapAdversary(std::unique_ptr<NetworkModel> net,
                                            const AdversaryOptions& options);

}  // namespace ooc::compose
