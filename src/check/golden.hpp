// Golden determinism fixtures: a small set of pinned (scenario, seed)
// configurations whose recorded runs are serialized to byte-stable
// artifacts (the counterexample file format, which embeds the scenario,
// the full schedule trace and the run counters).
//
// The artifacts live in tests/golden/ and are asserted byte-identical by
// tests/simcore_perf_test.cpp: any change to event ordering, payload
// sharing, fan-out, duplication-fault handling or the trace/counterexample
// serialization shows up as a diff. Regenerate with tools/golden_gen after
// an INTENDED schedule change — never to paper over an unintended one.
#pragma once

#include <string>
#include <vector>

#include "check/scenario.hpp"

namespace ooc::check {

struct GoldenFixture {
  /// File stem under tests/golden/ (<name>.golden).
  std::string name;
  Scenario scenario;
};

/// The pinned fixtures, chosen to cover the scheduler's hot paths:
/// broadcast fan-out (Ben-Or decomposed), nested envelopes (VAC-from-2AC),
/// lockstep barrier ordering (Phase-King), duplication faults plus
/// crash-restart staleness on shared payloads (Raft fault mix), and the
/// oracle role (rotating coordinator over a noisy Ω on a crash schedule).
std::vector<GoldenFixture> goldenFixtures();

/// The byte-stable artifact of a fixture: the serialized counterexample
/// file of its recorded run (scenario + invariant stub + trace + stats).
std::string renderGolden(const GoldenFixture& fixture);

}  // namespace ooc::check
