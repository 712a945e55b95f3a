// Large-scale model-checking sweeps. Labeled `slow` in ctest and skipped
// unless OOC_RUN_SLOW=1, so tier-1 runs stay fast; CI's scheduled job and
// scripts/check.sh cover this ground. OOC_CHECK_SEEDS overrides the sweep
// size (default 10000 random-walk configurations per family).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "check/checker.hpp"
#include "check/invariant.hpp"
#include "check/scenario.hpp"
#include "check/strategy.hpp"

namespace ooc::check {
namespace {

std::size_t sweepSize() {
  if (const char* env = std::getenv("OOC_CHECK_SEEDS"))
    return static_cast<std::size_t>(std::stoull(env));
  return 10000;
}

#define OOC_REQUIRE_SLOW()                                       \
  do {                                                           \
    if (std::getenv("OOC_RUN_SLOW") == nullptr)                  \
      GTEST_SKIP() << "set OOC_RUN_SLOW=1 to run big sweeps";    \
  } while (0)

void sweep(const ExplorationStrategy& strategy, std::size_t runs) {
  const auto suite = safetySuite();
  const CheckReport report = explore(strategy, view(suite), {});
  EXPECT_EQ(report.configsExplored, runs);
  EXPECT_TRUE(report.ok())
      << report.findings.front().violation.invariant << " at index "
      << report.findings.front().configIndex << ": "
      << report.findings.front().violation.detail;
}

RandomWalkStrategy::Options walkOptions() {
  RandomWalkStrategy::Options options;
  options.runs = sweepSize();
  return options;
}

TEST(SlowSweep, BenOrTenThousandSeedsClean) {
  OOC_REQUIRE_SLOW();
  Scenario base;  // benor-vac + local-coin
  base.compose.inputs = {0, 1, 0, 1, 1};
  sweep(RandomWalkStrategy(base, walkOptions()), sweepSize());
}

TEST(SlowSweep, PhaseKingTenThousandSeedsClean) {
  OOC_REQUIRE_SLOW();
  // The walk varies the attacker count and placement; the strategy axis is
  // covered by one walk per attacker strategy.
  Scenario base;
  auto& config = base.compose;
  config.detector = "phaseking-ac";
  config.driver = "king-conciliator";
  config.n = 7;
  config.byzantineCount = 2;
  config.inputs = {0, 1};
  config.maxRounds = 300;
  config.maxTicks = 100000;
  const auto walks =
      strategyWalks(base, walkOptions(),
                    {"silent", "random", "equivocate", "lying-king",
                     "anti-king"});
  sweep(*walks, sweepSize());
}

TEST(SlowSweep, RaftTenThousandSeedsClean) {
  OOC_REQUIRE_SLOW();
  Scenario base;
  base.family = Family::kRaft;
  sweep(RandomWalkStrategy(base, walkOptions()), sweepSize());
}

}  // namespace
}  // namespace ooc::check
