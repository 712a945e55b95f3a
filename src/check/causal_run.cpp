#include "check/causal_run.hpp"

#include "compose/kv.hpp"

namespace ooc::check {
namespace {

/// Forwards the scheduler stream to the causal recorder and, when a
/// recorded trace is present, to a verifier — one observer slot, two
/// consumers.
class RecordAndVerify final : public ScheduleObserver {
 public:
  RecordAndVerify(causal::CausalRecorder& recorder, const Trace* expected)
      : recorder_(recorder) {
    if (expected != nullptr) verifier_.emplace(*expected);
  }

  void onEvent(const TraceEvent& event) override {
    if (verifier_) verifier_->onEvent(event);
    recorder_.onEvent(event);
  }
  bool wantsCausality() const noexcept override { return true; }
  void onCausal(const CausalStamp& stamp) override {
    recorder_.onCausal(stamp);
  }

  const std::optional<TraceVerifier>& verifier() const noexcept {
    return verifier_;
  }

 private:
  causal::CausalRecorder& recorder_;
  std::optional<TraceVerifier> verifier_;
};

}  // namespace

CausalRun collectCausalRun(const Scenario& scenario, const Trace* expected) {
  causal::CausalRecorder recorder(scenario.processCount());
  RecordAndVerify observer(recorder, expected);
  compose::RunHooks hooks;
  hooks.observer = &observer;
  hooks.telemetry = &recorder;

  CausalRun result;
  result.report = runScenario(scenario, hooks);
  result.trace = std::move(recorder.trace());
  if (observer.verifier()) {
    result.replayIdentical = observer.verifier()->ok();
    result.divergence = observer.verifier()->divergence();
  }
  return result;
}

causal::TraceMeta causalMeta(const CounterexampleFile& file) {
  causal::TraceMeta meta;
  meta.runId = file.runId.empty()
                   ? compose::configRunId(serialize(file.scenario))
                   : file.runId;
  meta.scenario = describe(file.scenario);
  return meta;
}

}  // namespace ooc::check
