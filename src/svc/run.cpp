#include "svc/run.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "compose/kv.hpp"
#include "compose/registry.hpp"
#include "core/consensus_process.hpp"
#include "obs/metrics.hpp"
#include "paxos/paxos_node.hpp"
#include "sim/simulator.hpp"
#include "svc/raft_log.hpp"

namespace ooc::svc {
namespace {

/// Per-decree round cap of the composed engines.
constexpr Round kMaxRoundsPerDecree = 2000;
/// Paxos proposer retry bounds. They must be small: a decree's first
/// ballot fires from this timer. Reactive (no-op) joiners use 8x these
/// bounds as the failover rescue when the run has faults.
constexpr Tick kPaxosRetryMin = 4;
constexpr Tick kPaxosRetryMax = 12;

/// Decrees restart the template's rounds at 1, so every per-decree engine
/// seed must mix the decree in (see EngineFactory: a shared lottery draw
/// would otherwise repeat in every decree and can livelock the log).
std::uint64_t decreeSeed(std::uint64_t seed, std::uint64_t decree) noexcept {
  return seed ^ (0x9E3779B97F4A7C15ull * (decree + 1));
}

bool prefixEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i)
    if (a[i] != b[i]) return false;
  return true;
}

bool uniqueValues(const std::vector<Value>& values, bool skipNoop) {
  std::unordered_set<Value> seen;
  for (Value v : values) {
    if (skipNoop && v == kNoopBatch) continue;
    if (!seen.insert(v).second) return false;
  }
  return true;
}

}  // namespace

std::optional<std::string> validateEngine(const SvcConfig& config) {
  if (config.engine == "raft" || config.engine == "paxos") {
    if (config.scheduler != SchedulingPolicy::kLockstep) {
      return "service engine '" + config.engine +
             "' has no round scheduler to swap: the scheduling policy "
             "applies to composed per-decree engines only";
    }
    return std::nullopt;
  }
  if (config.engine != "compose") {
    return "unknown service engine '" + config.engine +
           "' (known: compose, paxos, raft)";
  }
  using compose::DetectorClass;
  using compose::DriverClass;
  using compose::FaultModel;
  using compose::InvocationMode;
  using compose::OracleRequirement;
  // Throws (listing known names) on an unknown name, like the resolver.
  const auto& detector = compose::registry().detector(config.detector);
  const auto& driver = compose::registry().driver(config.driver);
  if (const auto rejected = compose::registry().validatePairing(
          config.detector, config.driver)) {
    return rejected;
  }
  if (detector.capability.detectorClass !=
      DetectorClass::kVacillateAdoptCommit) {
    return "service engine needs a VAC detector: the log decides on commit "
           "under Algorithm 1, and '" +
           config.detector + "' is adopt-commit";
  }
  if (detector.capability.faultModel != FaultModel::kCrash) {
    return "service engine '" + config.detector +
           "' assumes a Byzantine fault model; the service's batching and "
           "catch-up protocols are crash-model only";
  }
  if (detector.capability.mode == InvocationMode::kLockstep) {
    return "service engine '" + config.detector +
           "' is lockstep-only; the service runs under the asynchronous "
           "scheduler (timer-driven client arrivals)";
  }
  if (driver.capability.mode == InvocationMode::kLockstep) {
    return "service driver '" + config.driver + "' is lockstep-only";
  }
  if (driver.capability.driverClass != DriverClass::kReconciliator) {
    return "service driver '" + config.driver +
           "' is a conciliator; the VAC template takes a reconciliator";
  }
  if (!driver.capability.multivalued) {
    return "service driver '" + config.driver +
           "' is not multivalued: a binary coin can never return a client "
           "command, so the log would decide values nobody proposed";
  }
  if (driver.capability.oracle != OracleRequirement::kNone) {
    return "service driver '" + config.driver +
           "' consumes a failure-detector oracle; the service harness "
           "attaches none";
  }
  // Non-lockstep round scheduling rides the same capability gate as the
  // compose layer: async-mode, skew-tolerant objects only.
  if (const auto rejected = compose::registry().validateScheduling(
          config.detector, config.driver, config.scheduler)) {
    return rejected;
  }
  return std::nullopt;
}

SvcResult runSvc(const SvcConfig& config, const compose::RunHooks& hooks) {
  if (const auto rejected = validateEngine(config))
    throw std::invalid_argument(*rejected);
  if (config.n == 0) throw std::invalid_argument("svc: n must be positive");

  const std::size_t n = config.n;

  SimConfig simConfig;
  simConfig.seed = config.seed;
  simConfig.maxTicks = config.maxTicks;
  simConfig.lockstep = false;
  UniformDelayNetwork::Options net;
  net.minDelay = config.minDelay;
  net.maxDelay = config.maxDelay;
  Simulator sim(simConfig,
                compose::wrapAdversary(
                    std::make_unique<UniformDelayNetwork>(net),
                    config.adversary));
  if (hooks.observer) sim.setScheduleObserver(hooks.observer);

  // The client side of every node, whatever its engine: runSvc collects
  // through these, and reads the nodes below only for what is engine-own.
  std::vector<const ClientFront*> fronts(n, nullptr);
  std::vector<SvcNode*> svcNodes(n, nullptr);
  std::vector<RaftLogNode*> raftNodes(n, nullptr);
  const std::shared_ptr<const ZipfCdf> zipf = makeZipfCdf(config.workload);
  const auto front = [&config, &zipf, n](ProcessId id) {
    return ClientFront(config.workload, zipf, id, n, config.seed);
  };

  if (config.engine == "raft") {
    raft::RaftConfig raftConfig;  // default timeouts and heartbeat
    raftConfig.durable = config.service.durable;
    raftConfig.syncBeforeReply = config.service.syncBeforeReply;
    raftConfig.storage = config.service.storage;
    for (ProcessId id = 0; id < n; ++id) {
      auto node = std::make_unique<RaftLogNode>(raftConfig, front(id));
      raftNodes[id] = node.get();
      fronts[id] = &node->front();
      sim.addProcess(std::move(node));
    }
  } else {
    EngineFactory factory;
    if (config.engine == "paxos") {
      // One proposer per decree (the batch owner); everyone else is a
      // passive acceptor/learner — unless the run has faults, in which
      // case reactive joiners drive a slow no-op ballot as the rescue for
      // decrees whose proposer died mid-ballot.
      const bool rescue =
          !config.crashes.empty() || !config.restarts.empty();
      factory = [rescue](std::uint64_t /*decree*/, Value proposal,
                         bool proposer) -> std::unique_ptr<Process> {
        const Tick scale = proposer ? 1 : 8;
        paxos::PaxosConfig pc;
        pc.propose = proposer || rescue;
        pc.retryMin = kPaxosRetryMin * scale;
        pc.retryMax = kPaxosRetryMax * scale;
        return std::make_unique<paxos::PaxosNode>(proposal, pc);
      };
    } else {
      const auto* detector = &compose::registry().detector(config.detector);
      const auto* driver = &compose::registry().driver(config.driver);
      compose::ObjectParams params;
      params.n = n;
      params.t =
          (n - 1) / std::max<std::size_t>(1, detector->capability.tDivisor);
      params.seed = config.seed;
      const SchedulingPolicy scheduling = config.scheduler;
      factory = [detector, driver, params, scheduling](
                    std::uint64_t decree, Value proposal,
                    bool /*proposer*/) -> std::unique_ptr<Process> {
        compose::ObjectParams p = params;
        p.seed = decreeSeed(params.seed, decree);
        ConsensusProcess::Options options;
        options.kind = TemplateKind::kVacReconciliator;
        options.scheduling = scheduling;
        // Multivalued drivers (the lottery) wait for a quorum in every
        // drive wave; one round after deciding lets each engine quiesce.
        options.alwaysRunDriver = true;
        options.participateRoundsAfterDecide = 1;
        options.maxRounds = kMaxRoundsPerDecree;
        return std::make_unique<ConsensusProcess>(
            proposal, detector->make(p), driver->make(p), options);
      };
    }
    for (ProcessId id = 0; id < n; ++id) {
      auto node = std::make_unique<SvcNode>(factory, front(id), config.service);
      svcNodes[id] = node.get();
      fronts[id] = &node->front();
      sim.addProcess(std::move(node));
    }
  }

  for (const auto& [id, tick] : config.crashes) sim.crashAt(id, tick);
  for (const compose::RestartEntry& event : config.restarts)
    sim.restartAt(event.id, event.at, event.downtime);

  if (config.engine == "raft") {
    // Raft never quiesces — heartbeats and the resubmit bridge re-arm
    // forever — so the run needs an explicit endpoint: every node still up
    // is drained (calendar done, own commands applied) and the applied
    // prefixes have equalized. Permanently crashed nodes are exempt; a
    // node inside its restart downtime just keeps the predicate false
    // until it is back and caught up.
    std::unordered_set<ProcessId> permanentlyDown;
    for (const auto& [id, tick] : config.crashes) permanentlyDown.insert(id);
    sim.setStopPredicate([&, permanentlyDown](const Simulator& s) {
      std::size_t reference = raftNodes.size();
      for (ProcessId id = 0; id < raftNodes.size(); ++id) {
        if (s.crashed(id)) {
          if (permanentlyDown.contains(id)) continue;
          return false;  // mid-downtime: wait for the restart
        }
        if (!raftNodes[id]->drained()) return false;
        if (reference == raftNodes.size()) {
          reference = id;
        } else if (fronts[id]->applied().size() !=
                   fronts[reference]->applied().size()) {
          return false;
        }
      }
      return reference != raftNodes.size();
    });
  }
  // The other engines need no stop predicate: idle detection quiesces the
  // cluster and the event queue drains (maxTicks guards runaways, reported
  // via hitCap).
  sim.run();

  // --- collect ---------------------------------------------------------
  const bool raft = config.engine == "raft";
  SvcResult result;
  std::uint64_t emitted = 0;
  for (ProcessId id = 0; id < n; ++id) {
    const ClientFront& client = *fronts[id];
    emitted += client.workload().emitted();
    result.duplicatesSuppressed += client.duplicatesSuppressed();
    result.latencies.insert(result.latencies.end(), client.latencies().begin(),
                            client.latencies().end());
    result.batchSizes.insert(result.batchSizes.end(),
                             client.batchSizes().begin(),
                             client.batchSizes().end());
    if (raft) {
      result.noopDecrees =
          std::max(result.noopDecrees, raftNodes[id]->noopsApplied());
      for (const auto& event : raftNodes[id]->leaderEvents())
        result.leaderEvents.emplace_back(event.at, id);
    } else {
      result.noopDecrees =
          std::max(result.noopDecrees, svcNodes[id]->noopDecrees());
    }
  }
  std::sort(result.leaderEvents.begin(), result.leaderEvents.end());
  result.commandsEmitted = emitted;
  result.messagesByCorrect = sim.messagesSentByCorrect();
  result.eventsProcessed = sim.eventsProcessed();
  result.hitCap = sim.hitCap();

  // --- audits ----------------------------------------------------------
  // Prefix agreement over applied command logs (and, for decree-based
  // engines, over the decree logs themselves).
  for (ProcessId a = 0; a < n && result.prefixOk; ++a) {
    for (ProcessId b = a + 1; b < n && result.prefixOk; ++b) {
      if (!prefixEqual(fronts[a]->applied(), fronts[b]->applied()))
        result.prefixOk = false;
      if (!raft &&
          !prefixEqual(svcNodes[a]->decreeLog(), svcNodes[b]->decreeLog()))
        result.prefixOk = false;
    }
  }
  // Exactly-once: no command applied twice at any node, and (decree-based
  // engines) no batch wins two decrees, with zero suppressed duplicates —
  // a suppressed duplicate there means a batch was re-proposed unsafely.
  // Raft legitimately relies on suppression across failovers, so only the
  // applied-log uniqueness is asserted for it.
  for (ProcessId id = 0; id < n && result.exactlyOnce; ++id) {
    if (!uniqueValues(fronts[id]->applied(), /*skipNoop=*/false))
      result.exactlyOnce = false;
    if (!raft && !uniqueValues(svcNodes[id]->decreeLog(), /*skipNoop=*/true))
      result.exactlyOnce = false;
  }
  if (!raft && result.duplicatesSuppressed != 0) result.exactlyOnce = false;

  std::size_t longest = 0;
  for (ProcessId id = 0; id < n; ++id) {
    const std::size_t applied = fronts[id]->applied().size();
    longest = std::max(longest, applied);
    result.decreesCommitted = std::max(
        result.decreesCommitted,
        raft ? applied : svcNodes[id]->decreeLog().size());
  }
  result.commandsCommitted = longest;
  result.allApplied = result.prefixOk && emitted > 0;
  for (ProcessId id = 0; id < n; ++id)
    if (fronts[id]->applied().size() != emitted) result.allApplied = false;

  // Reference node for the commit timeline: the first node the fault
  // schedule never touches.
  ProcessId reference = 0;
  for (ProcessId id = 0; id < n; ++id) {
    bool faulted = false;
    for (const auto& [cid, tick] : config.crashes) faulted |= (cid == id);
    for (const compose::RestartEntry& event : config.restarts)
      faulted |= (event.id == id);
    if (!faulted) {
      reference = id;
      break;
    }
  }
  const std::vector<Tick>& ticks = fronts[reference]->commitTicks();
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    result.lastCommitTick = std::max(result.lastCommitTick, ticks[i]);
    if (i > 0 && ticks[i] - ticks[i - 1] > result.maxCommitGap)
      result.maxCommitGap = ticks[i] - ticks[i - 1];
  }
  if (result.lastCommitTick > 0) {
    result.commandsPerKtick =
        static_cast<double>(result.commandsCommitted) * 1000.0 /
        static_cast<double>(result.lastCommitTick);
  }

  if (obs::enabled()) {
    const obs::Labels base = {{"engine", config.engine}, {"family", "svc"}};
    obs::Batch batch;
    batch.addCounter("svc_commands_committed", result.commandsCommitted, base);
    batch.addCounter("svc_decrees_committed", result.decreesCommitted, base);
    batch.addCounter("svc_noop_decrees", result.noopDecrees, base);
    for (const Tick latency : result.latencies) {
      batch.observe("svc_decide_latency_ticks", static_cast<double>(latency),
                    base);
    }
    for (const std::uint32_t size : result.batchSizes)
      batch.observe("svc_batch_size", size, base);
    obs::metrics().commit(batch);
    // No per-run gauges here: a last-writer-wins gauge from inside a run is
    // order-dependent once trials fan across the experiment scheduler.
    // Aggregate gauges (svc_mean_commands_per_ktick, svc_blackout_ticks)
    // are set by the callers' sequential trial-order folds instead.
  }
  return result;
}

// --- wire format -----------------------------------------------------------

std::string serializeSvcConfig(const SvcConfig& config) {
  compose::KvWriter kv;
  kv.put("engine", config.engine);
  if (config.engine == "compose") {
    kv.put("detector", config.detector);
    kv.put("driver", config.driver);
    // Wire purity: the scheduler key exists only when non-lockstep, so
    // every pre-policy scenario file and run-id stays byte-identical.
    if (config.scheduler != SchedulingPolicy::kLockstep)
      kv.put("scheduler", toString(config.scheduler));
  }
  kv.put("n", static_cast<std::uint64_t>(config.n));
  kv.put("seed", config.seed);
  kv.put("window", config.service.window);
  kv.put("batch-max", static_cast<std::uint64_t>(config.service.batchMax));
  kv.put("max-decrees", config.service.maxDecrees);
  kv.put("durable", static_cast<std::uint64_t>(config.service.durable));
  kv.put("sync-before-reply",
         static_cast<std::uint64_t>(config.service.syncBeforeReply));
  kv.put("torn-prob", config.service.storage.tornTailProbability);
  kv.put("corrupt-prob", config.service.storage.corruptProbability);
  kv.put("clients", config.workload.clients);
  kv.put("commands-per-node", config.workload.commandsPerNode);
  kv.put("closed-loop", static_cast<std::uint64_t>(config.workload.closedLoop));
  kv.put("think-min", config.workload.thinkMin);
  kv.put("think-max", config.workload.thinkMax);
  kv.put("start-spread", config.workload.startSpread);
  kv.put("arrivals-per-tick", config.workload.arrivalsPerTick);
  kv.put("burst-every", config.workload.burstEvery);
  kv.put("burst-len", config.workload.burstLen);
  kv.put("burst-factor", config.workload.burstFactor);
  kv.put("zipf-theta", config.workload.zipfTheta);
  kv.put("key-space", static_cast<std::uint64_t>(config.workload.keySpace));
  kv.put("min-delay", config.minDelay);
  kv.put("max-delay", config.maxDelay);
  for (const auto& crash : config.crashes)
    kv.put("crash", compose::crashEntry(crash));
  for (const compose::RestartEntry& event : config.restarts)
    kv.put("restart", compose::restartEntry(event));
  compose::putAdversary(kv, config.adversary);
  kv.put("max-ticks", config.maxTicks);
  return compose::stampRunId(kv.str());
}

SvcConfig parseSvcConfig(const std::string& text) {
  const compose::KvReader kv(text);
  SvcConfig config;
  config.engine = kv.get("engine", config.engine);
  config.detector = kv.get("detector", config.detector);
  config.driver = kv.get("driver", config.driver);
  if (kv.has("scheduler")) {
    const std::string name = kv.get("scheduler", "lockstep");
    const auto policy = parseSchedulingPolicy(name);
    if (!policy)
      throw std::runtime_error("unknown scheduler '" + name +
                               "'; known: lockstep, event-driven, ooo-driver");
    config.scheduler = *policy;
  }
  config.n = kv.getU64("n", config.n);
  config.seed = kv.getU64("seed", config.seed);
  config.service.window = kv.getU64("window", config.service.window);
  config.service.batchMax = kv.getU64("batch-max", config.service.batchMax);
  config.service.maxDecrees =
      kv.getU64("max-decrees", config.service.maxDecrees);
  config.service.durable =
      kv.getU64("durable", config.service.durable ? 1 : 0) != 0;
  config.service.syncBeforeReply =
      kv.getU64("sync-before-reply",
                config.service.syncBeforeReply ? 1 : 0) != 0;
  config.service.storage.tornTailProbability =
      kv.getDouble("torn-prob", config.service.storage.tornTailProbability);
  config.service.storage.corruptProbability =
      kv.getDouble("corrupt-prob", config.service.storage.corruptProbability);
  config.workload.clients = kv.getU64("clients", config.workload.clients);
  config.workload.commandsPerNode =
      kv.getU64("commands-per-node", config.workload.commandsPerNode);
  config.workload.closedLoop =
      kv.getU64("closed-loop", config.workload.closedLoop ? 1 : 0) != 0;
  config.workload.thinkMin = kv.getU64("think-min", config.workload.thinkMin);
  config.workload.thinkMax = kv.getU64("think-max", config.workload.thinkMax);
  config.workload.startSpread =
      kv.getU64("start-spread", config.workload.startSpread);
  config.workload.arrivalsPerTick =
      kv.getDouble("arrivals-per-tick", config.workload.arrivalsPerTick);
  config.workload.burstEvery =
      kv.getU64("burst-every", config.workload.burstEvery);
  config.workload.burstLen = kv.getU64("burst-len", config.workload.burstLen);
  config.workload.burstFactor =
      kv.getDouble("burst-factor", config.workload.burstFactor);
  config.workload.zipfTheta =
      kv.getDouble("zipf-theta", config.workload.zipfTheta);
  config.workload.keySpace =
      kv.getNarrow<std::uint32_t>("key-space", config.workload.keySpace);
  config.minDelay = kv.getU64("min-delay", config.minDelay);
  config.maxDelay = kv.getU64("max-delay", config.maxDelay);
  for (const std::string& entry : kv.getAll("crash"))
    config.crashes.push_back(compose::parseCrash(entry));
  for (const std::string& entry : kv.getAll("restart"))
    config.restarts.push_back(compose::parseRestart(entry));
  config.adversary = compose::getAdversary(kv);
  config.maxTicks = kv.getU64("max-ticks", config.maxTicks);
  if (const auto rejected = validateEngine(config))
    throw std::invalid_argument(*rejected);
  return config;
}

}  // namespace ooc::svc
