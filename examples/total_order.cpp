// Total-order broadcast from first principles: every log decree is one run
// of the paper's consensus template. Four branch offices submit ledger
// transactions concurrently; all replicas end with the identical, totally
// ordered ledger — no leader, no terms, just a detector + reconciliator
// pair per decree, hosted by the replicated-log service one decree and one
// transaction at a time.
//
//   $ ./total_order [seed]
#include <cstdio>
#include <cstdlib>

#include "svc/run.hpp"

int main(int argc, char** argv) {
  using namespace ooc;

  constexpr std::size_t kBranches = 4;
  constexpr std::uint64_t kTransfersPerBranch = 3;

  svc::SvcConfig config;
  config.detector = "benor-vac";
  config.driver = "lottery";
  config.n = kBranches;
  config.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  config.minDelay = 1;
  config.maxDelay = 8;
  config.service.window = 1;
  config.service.batchMax = 1;
  config.workload.commandsPerNode = kTransfersPerBranch;
  config.workload.startSpread = 1;  // every branch's transfers queue at tick 1
  const svc::SvcResult result = svc::runSvc(config);

  std::printf("%s + %s per decree, %zu branches x %llu transfers\n",
              config.detector.c_str(), config.driver.c_str(), kBranches,
              static_cast<unsigned long long>(kTransfersPerBranch));
  std::printf("%llu transfers in %llu decrees (%llu no-op decrees), last "
              "commit at tick %llu, %llu messages\n",
              static_cast<unsigned long long>(result.commandsCommitted),
              static_cast<unsigned long long>(result.decreesCommitted),
              static_cast<unsigned long long>(result.noopDecrees),
              static_cast<unsigned long long>(result.lastCommitTick),
              static_cast<unsigned long long>(result.messagesByCorrect));
  const bool identical = result.prefixOk && result.exactlyOnce &&
                         result.allApplied && !result.hitCap;
  std::printf("every transfer applied exactly once, all %zu replica "
              "ledgers identical: %s\n",
              kBranches, identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
