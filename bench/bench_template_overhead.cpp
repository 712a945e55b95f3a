// E13 — engineering cost of the decomposition (google-benchmark).
//
// The paper's framework trades a monolithic loop for objects, factories,
// envelopes and routing. This microbenchmark quantifies the wall-clock
// price on identical workloads: full simulated consensus runs, decomposed
// vs monolithic, for Ben-Or and Phase-King, plus the synthesized VAC.
// Expected shape: the template costs a modest constant factor (envelope
// allocation + virtual dispatch), not an asymptotic change.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "compose/run.hpp"
#include "harness/scenarios.hpp"

namespace {

using ooc::compose::Composition;
using ooc::compose::runComposition;

/// detector == nullptr runs the monolithic baseline.
void benchBenOr(benchmark::State& state, const char* detector) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  std::uint64_t rounds = 0, runs = 0;
  for (auto _ : state) {
    std::vector<ooc::Value> inputs(n);
    for (std::size_t i = 0; i < n; ++i)
      inputs[i] = static_cast<ooc::Value>(i % 2);
    const std::size_t t = std::max<std::size_t>(1, n / 8);
    ooc::compose::CompositionResult result;
    if (detector == nullptr) {
      ooc::harness::MonolithicBenOrConfig config;
      config.n = n;
      config.inputs = std::move(inputs);
      config.seed = seed++;
      config.t = t;
      result = ooc::harness::runMonolithicBenOr(config);
    } else {
      Composition config;
      config.detector = detector;
      config.n = n;
      config.inputs = std::move(inputs);
      config.seed = seed++;
      config.t = t;
      result = runComposition(config);
    }
    if (!result.allDecided || result.agreementViolated)
      state.SkipWithError("consensus failure");
    rounds += result.maxDecisionRound;
    ++runs;
    benchmark::DoNotOptimize(result.decidedValue);
  }
  state.counters["rounds/run"] =
      benchmark::Counter(static_cast<double>(rounds) /
                         static_cast<double>(runs ? runs : 1));
}

void BM_BenOrDecomposed(benchmark::State& state) {
  benchBenOr(state, "benor-vac");
}
void BM_BenOrMonolithic(benchmark::State& state) {
  benchBenOr(state, nullptr);
}
void BM_BenOrVacFromTwoAc(benchmark::State& state) {
  benchBenOr(state, "vac-from-two-ac");
}

void benchPhaseKing(benchmark::State& state, bool monolithic) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ooc::compose::CompositionResult result;
    if (monolithic) {
      ooc::harness::MonolithicPhaseKingConfig config;
      config.n = n;
      config.byzantineCount = (n - 1) / 3;
      config.seed = seed++;
      result = ooc::harness::runMonolithicPhaseKing(config);
    } else {
      Composition config;
      config.detector = "phaseking-ac";
      config.driver = "king-conciliator";
      config.n = n;
      config.byzantineCount = (n - 1) / 3;
      config.inputs = {0, 1};
      config.seed = seed++;
      result = runComposition(config);
    }
    if (!result.allDecided || result.agreementViolated)
      state.SkipWithError("consensus failure");
    benchmark::DoNotOptimize(result.decidedValue);
  }
}

void BM_PhaseKingDecomposed(benchmark::State& state) {
  benchPhaseKing(state, false);
}
void BM_PhaseKingMonolithic(benchmark::State& state) {
  benchPhaseKing(state, true);
}

}  // namespace

BENCHMARK(BM_BenOrDecomposed)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BenOrMonolithic)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BenOrVacFromTwoAc)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PhaseKingDecomposed)->Arg(7)->Arg(13)->Arg(25)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PhaseKingMonolithic)->Arg(7)->Arg(13)->Arg(25)->Unit(benchmark::kMicrosecond);

// Custom main: accept the uniform bench flags (--quick, --json PATH) by
// translating them to google-benchmark's own flags, so scripts/bench.sh can
// drive every binary identically. Note the JSON here is google-benchmark's
// schema (wall-clock timings), not ooc.bench.v1 — timings are inherently
// non-reproducible byte-for-byte, and EXPERIMENTS.md documents the split.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 2);
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      storage.push_back("--benchmark_min_time=0.01");
    } else if (arg == "--json" && i + 1 < argc) {
      storage.push_back(std::string("--benchmark_out=") + argv[++i]);
      storage.push_back("--benchmark_out_format=json");
    } else {
      args.push_back(argv[i]);
      continue;
    }
  }
  for (std::string& s : storage) args.push_back(s.data());
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
