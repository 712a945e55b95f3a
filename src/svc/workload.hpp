// Deterministic client-workload generator for the replicated-log service.
//
// The model simulates a large logical client population (10^5-10^6 clients
// are cheap: per-client state is never materialized) issuing commands
// against a keyspace with zipfian popularity — the standard skew of
// storage-system traces. Two arrival disciplines:
//
//  * closed loop (default): every client has at most one command in
//    flight. The initial wave spreads the population's first commands over
//    `startSpread` ticks; when one of this node's commands commits, the
//    issuing client "thinks" for a uniform [thinkMin, thinkMax] ticks and
//    then issues its next command. Concurrency self-regulates with commit
//    throughput — the classic closed-loop property.
//  * open loop: commands arrive at `arrivalsPerTick` regardless of commit
//    progress, optionally modulated by periodic bursts (x burstFactor for
//    burstLen ticks every burstEvery ticks). Open loops expose overload:
//    queues grow when the decree pipeline falls behind.
//
// Emission is capped at `commandsPerNode` so runs terminate; the cap is
// what bounds a 10^6-client population to a finite schedule (only the
// earliest arrivals of the wave fit under it). All randomness derives from
// one seed: a Workload's arrival calendar, client ids and key draws are a
// pure function of (options, node, n, seed).
//
// ClientFront is the client side of one service node, the one copy that
// SvcNode and RaftLogNode both own: the node's Workload, command minting,
// the arrival timer and arrival stamps, and the apply ledger (applied log,
// duplicates, commit ticks, latencies, batch sizes) that runSvc collects
// through. The nodes keep their own consensus machinery and decide when to
// apply, commit and re-arm; the front keeps what a client sees.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/process.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ooc::svc {

/// The reserved "no command" value (the Raft leader barrier's entry).
/// Client command ids are always positive.
inline constexpr Value kNoopCommand = 0;

/// Packs (node, sequence) into a globally unique command id; the home node
/// lives in the high half so audits can attribute commands across layers.
constexpr Value makeCommand(ProcessId node, std::uint32_t seq) noexcept {
  return static_cast<Value>(
      (static_cast<std::uint64_t>(node + 1) << 32) | seq);
}
constexpr ProcessId commandNode(Value command) noexcept {
  return static_cast<ProcessId>(
             static_cast<std::uint64_t>(command) >> 32) - 1;
}

/// The sequence half of a command or batch id: the node's incarnation in
/// bits 24..31 above a per-incarnation counter, so ids never collide across
/// restarts (a restart forgets the counter). Throws std::overflow_error
/// rather than wrap either field into an id an earlier incarnation minted.
std::uint32_t incarnationSequence(std::uint32_t incarnation,
                                  std::uint32_t seq);

struct WorkloadOptions {
  /// Logical client population, cluster-wide; client c is homed at node
  /// c % n. Populations of 10^5-10^6 cost nothing beyond the draws.
  std::uint64_t clients = 100000;
  /// Emission cap per node (the run's finite-schedule bound).
  std::uint64_t commandsPerNode = 48;
  /// Closed loop (think-time) vs open loop (fixed arrival rate).
  bool closedLoop = true;
  /// Closed loop: think time drawn uniformly from [thinkMin, thinkMax].
  Tick thinkMin = 20;
  Tick thinkMax = 200;
  /// Closed loop: the population's first commands spread over this window.
  Tick startSpread = 64;
  /// Open loop: base arrivals per tick at this node.
  double arrivalsPerTick = 0.25;
  /// Open loop bursts: every `burstEvery` ticks the rate is multiplied by
  /// `burstFactor` for `burstLen` ticks. 0 disables bursts.
  Tick burstEvery = 0;
  Tick burstLen = 0;
  double burstFactor = 4.0;
  /// Zipfian key popularity over [0, keySpace): P(k) ~ 1/(k+1)^theta.
  double zipfTheta = 0.99;
  std::uint32_t keySpace = 1 << 16;
};

/// The zipf key-popularity CDF over [0, keySpace): cdf[k] = sum_{i<=k}
/// 1/(i+1)^theta, normalized. Only (keySpace, zipfTheta) shape it, so a run
/// builds one and every node's Workload draws from it.
using ZipfCdf = std::vector<double>;
std::shared_ptr<const ZipfCdf> makeZipfCdf(const WorkloadOptions& options);

/// One client command arrival: which logical client issued it, against
/// which key, and the tick it fell due (a collection after a downtime comes
/// later). The command id itself is minted by the client front.
struct Arrival {
  std::uint64_t client = 0;
  std::uint32_t key = 0;
  Tick due = 0;
};

/// Per-node deterministic arrival calendar. The client front polls
/// nextArrivalTick() to arm its arrival timer and collect()s the arrivals
/// when it fires; commits feed back through onCommit() in closed-loop mode.
class Workload {
 public:
  /// `zipf` is the run's shared key table (makeZipfCdf); it must be set.
  Workload(const WorkloadOptions& options, std::shared_ptr<const ZipfCdf> zipf,
           ProcessId node, std::size_t n, std::uint64_t seed);

  /// Earliest tick (strictly greater than `now`) with pending arrivals;
  /// 0 when the calendar is empty (cap reached and nothing scheduled).
  Tick nextArrivalTick(Tick now) const;

  /// Draws and consumes every arrival scheduled at or before `tick`
  /// (arrivals missed during a crash downtime are swept up on the next
  /// firing).
  std::vector<Arrival> collect(Tick tick);

  /// Closed-loop feedback: one of this node's commands committed at `now`;
  /// the issuing client thinks and then re-arrives (until the cap).
  void onCommit(Tick now);

  std::uint64_t emitted() const noexcept { return emitted_; }
  std::uint64_t cap() const noexcept { return options_.commandsPerNode; }

 private:
  std::uint32_t drawKey();

  WorkloadOptions options_;
  std::uint64_t population_ = 0;  ///< clients homed at this node
  Rng rng_;
  /// tick -> number of arrivals scheduled there (drawn lazily at collect).
  std::map<Tick, std::uint32_t> calendar_;
  /// The run's zipf CDF, shared with every other node's workload.
  std::shared_ptr<const ZipfCdf> zipfCdf_;
  std::uint64_t planned_ = 0;  ///< arrivals scheduled (cap applies here)
  std::uint64_t emitted_ = 0;  ///< arrivals actually collected
};

/// The client side of one service node (see the header comment).
class ClientFront {
 public:
  ClientFront(const WorkloadOptions& options,
              std::shared_ptr<const ZipfCdf> zipf, ProcessId node,
              std::size_t n, std::uint64_t seed);

  // --- arrivals ---

  /// Arms the arrival timer for the next scheduled arrival, unless an
  /// earlier firing already covers it.
  void armArrivals(Context& ctx);
  bool isArrivalTimer(TimerId id) const noexcept {
    return id == arrivalTimer_;
  }
  /// The arrival timer fired: mints and stamps one command per arrival due
  /// by now, re-arms the timer, and returns the commands in mint order.
  std::vector<Value> takeArrivals(Context& ctx);

  // --- the apply ledger ---

  /// Applies one client command. A command applied before is a suppressed
  /// duplicate: counted, and false is returned. An own command turns its
  /// arrival stamp into a latency sample and, with `feedback`, hands the
  /// commit to the closed loop (its client thinks, then re-arrives).
  bool apply(Value command, Tick now, bool feedback = true);
  /// Re-enters a journaled command at recovery: no duplicate count, no
  /// latency sample, no client feedback.
  void restore(Value command);
  void recordCommit(Tick now) { commitTicks_.push_back(now); }
  void recordBatch(std::size_t size) {
    batchSizes_.push_back(static_cast<std::uint32_t>(size));
  }

  /// The node restarted: the ledger, the stamps, the command counter and
  /// the arrival timer (purged by the crash) are gone. The workload and
  /// the latency samples survive: clients do not crash with the replica,
  /// and a sample is what a client already saw.
  void reset();

  // --- the read interface runSvc collects through ---

  const Workload& workload() const noexcept { return workload_; }
  /// Own commands this incarnation minted and has not applied yet: the
  /// arrival stamps, which reset() clears with the rest of the ledger. It
  /// covers the current incarnation only. Stamps kept across a restart
  /// would need a count of their own here, or RaftLogNode::drained() would
  /// wait on commands the crash erased.
  std::size_t inFlight() const noexcept { return stamps_.size(); }
  /// Applied client commands, in apply order (no-ops excluded).
  const std::vector<Value>& applied() const noexcept { return applied_; }
  bool isApplied(Value command) const { return appliedSet_.contains(command); }
  /// Ticks of the node's commits: SvcNode records one per live decree,
  /// RaftLogNode one per applied command.
  const std::vector<Tick>& commitTicks() const noexcept {
    return commitTicks_;
  }
  /// Due-to-apply latency of this node's own commands, in ticks, across
  /// every incarnation.
  const std::vector<Tick>& latencies() const noexcept { return latencies_; }
  /// Commands per commit step: SvcNode records one per applied batch,
  /// RaftLogNode one per commit-index advance.
  const std::vector<std::uint32_t>& batchSizes() const noexcept {
    return batchSizes_;
  }
  std::uint64_t duplicatesSuppressed() const noexcept {
    return dupSuppressed_;
  }

 private:
  ProcessId node_;
  Workload workload_;
  std::uint32_t cmdSeq_ = 0;  ///< per-incarnation
  TimerId arrivalTimer_ = 0;
  Tick arrivalArmedFor_ = 0;
  /// Own command -> the tick its arrival fell due, until applied here.
  std::unordered_map<Value, Tick> stamps_;

  std::vector<Value> applied_;
  std::unordered_set<Value> appliedSet_;
  std::vector<Tick> commitTicks_;
  std::vector<Tick> latencies_;
  std::vector<std::uint32_t> batchSizes_;
  std::uint64_t dupSuppressed_ = 0;
};

}  // namespace ooc::svc
