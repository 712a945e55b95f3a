#include "compose/composition.hpp"

#include <cctype>
#include <stdexcept>

#include "compose/kv.hpp"

namespace ooc::compose {

const char* toString(Placement placement) noexcept {
  switch (placement) {
    case Placement::kFront: return "front";
    case Placement::kBack: return "back";
    case Placement::kSpread: return "spread";
  }
  return "?";
}

Placement parsePlacement(const std::string& name) {
  if (name == "front") return Placement::kFront;
  if (name == "back") return Placement::kBack;
  if (name == "spread") return Placement::kSpread;
  throw std::runtime_error("unknown placement '" + name + "'");
}

const char* toString(PlantedFault fault) noexcept {
  switch (fault) {
    case PlantedFault::kNone: return "none";
    case PlantedFault::kVacAdoptFlip: return "vac-adopt-flip";
  }
  return "?";
}

PlantedFault parsePlantedFault(const std::string& name) {
  if (name == "none") return PlantedFault::kNone;
  if (name == "vac-adopt-flip") return PlantedFault::kVacAdoptFlip;
  throw std::runtime_error("unknown fault '" + name + "'");
}

// ---------------------------------------------------------------------------
// resolution

std::optional<std::string> validate(const Composition& composition) {
  const Registry& reg = registry();
  try {
    if (auto diagnostic =
            reg.validatePairing(composition.detector, composition.driver))
      return diagnostic;
    if (auto diagnostic = reg.validateOracle(
            composition.driver, composition.oracle, composition.oracleKnobs))
      return diagnostic;
    if (auto diagnostic = reg.validateScheduling(
            composition.detector, composition.driver, composition.scheduler))
      return diagnostic;
  } catch (const std::invalid_argument& unknownName) {
    return unknownName.what();  // the registry lookup's "known: ..." text
  }
  const DetectorCapability& detector =
      reg.detector(composition.detector).capability;
  if (composition.byzantineCount > composition.n)
    return "more Byzantine than processes";
  if (composition.byzantineCount > 0 &&
      detector.faultModel != FaultModel::kByzantine) {
    return "detector '" + composition.detector +
           "' is crash-model: it cannot host planted Byzantine processes";
  }
  if (!composition.crashes.empty() &&
      detector.mode == InvocationMode::kLockstep)
    return "lockstep compositions take Byzantine plants, not crash schedules";
  return std::nullopt;
}

ResolvedComposition resolve(const Composition& composition) {
  if (const auto diagnostic = validate(composition))
    throw std::invalid_argument(*diagnostic);
  const Registry& reg = registry();
  ResolvedComposition resolved;
  resolved.detector = &reg.detector(composition.detector);
  resolved.driver = &reg.driver(composition.driver);
  if (!composition.oracle.empty())
    resolved.oracle = &reg.oracle(composition.oracle);
  const std::size_t divisor = resolved.detector->capability.tDivisor;
  resolved.t = composition.t.value_or(
      composition.n == 0 ? 0 : (composition.n - 1) / divisor);
  resolved.lockstep =
      resolved.detector->capability.mode == InvocationMode::kLockstep;
  resolved.scheduling = composition.scheduler;
  // ooo-driver detaches the courtesy drive of every round — which only
  // exists when every process drives every round.
  resolved.alwaysRunDriver =
      resolved.lockstep || resolved.driver->capability.requiresEveryProcess ||
      composition.scheduler == SchedulingPolicy::kOooDriver;
  return resolved;
}

Composition parseSpec(const std::string& spec, const std::string& oracle,
                      const fd::OracleKnobs& oracleKnobs) {
  const auto trim = [](std::string s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
      s.erase(s.begin());
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
      s.pop_back();
    return s;
  };
  const auto plus = spec.find('+');
  if (plus == std::string::npos)
    throw std::invalid_argument("composition spec '" + spec +
                                "' must be detector+driver");
  Composition composition;
  composition.detector = trim(spec.substr(0, plus));
  composition.driver = trim(spec.substr(plus + 1));
  if (composition.detector.empty() || composition.driver.empty())
    throw std::invalid_argument("composition spec '" + spec +
                                "' must be detector+driver");
  composition.oracle = oracle;
  composition.oracleKnobs = oracleKnobs;
  resolve(composition);  // surfaces unknown names / invalid pairings now
  return composition;
}

// ---------------------------------------------------------------------------
// key=value wire format

std::string serialize(const Composition& composition) {
  KvWriter kv;
  kv.put("detector", composition.detector);
  kv.put("driver", composition.driver);
  kv.put("n", composition.n);
  if (composition.t) kv.put("t", *composition.t);
  kv.put("byzantine", composition.byzantineCount);
  kv.put("byz-strategy", composition.byzantineStrategy);
  kv.put("placement", toString(composition.placement));
  kv.putValues("inputs", composition.inputs);
  kv.put("seed", composition.seed);
  kv.put("bias", composition.bias);
  for (const auto& crash : composition.crashes)
    kv.put("crash", crashEntry(crash));
  kv.put("min-delay", composition.minDelay);
  kv.put("max-delay", composition.maxDelay);
  putAdversary(kv, composition.adversary);
  kv.put("early-commit",
         static_cast<std::uint64_t>(composition.earlyCommitDecision));
  kv.put("max-rounds", static_cast<std::uint64_t>(composition.maxRounds));
  kv.put("max-ticks", composition.maxTicks);
  kv.put("fault", toString(composition.fault));
  // Same wire-purity rule as the oracle role below: the scheduler key
  // appears only for non-default policies, so every pre-policy golden and
  // counterexample stays byte-identical.
  if (composition.scheduler != SchedulingPolicy::kLockstep)
    kv.put("scheduler", toString(composition.scheduler));
  // Zero-cost for oracle-free pairings: not a byte changes unless an
  // oracle is attached (the pre-oracle goldens stay byte-identical).
  if (!composition.oracle.empty()) {
    kv.put("oracle", composition.oracle);
    kv.put("oracle-completeness-lag", composition.oracleKnobs.completenessLag);
    kv.put("oracle-stabilize-at", composition.oracleKnobs.stabilizeAt);
    kv.put("oracle-noise", composition.oracleKnobs.noise);
    kv.put("oracle-noise-epoch", composition.oracleKnobs.noiseEpoch);
    kv.put("oracle-lie",
           static_cast<std::uint64_t>(composition.oracleKnobs.lieAboutBound));
  }
  return stampRunId(kv.str());
}

Composition parseComposition(const std::string& text) {
  const KvReader kv(text);
  Composition composition;
  composition.detector = kv.get("detector", composition.detector);
  composition.driver = kv.get("driver", composition.driver);
  composition.n = kv.getU64("n", composition.n);
  if (kv.has("t")) composition.t = kv.getU64("t", 0);
  composition.byzantineCount =
      kv.getU64("byzantine", composition.byzantineCount);
  composition.byzantineStrategy =
      kv.get("byz-strategy", composition.byzantineStrategy);
  composition.placement = parsePlacement(kv.get("placement", "front"));
  composition.inputs = kv.getValues("inputs");
  composition.seed = kv.getU64("seed", composition.seed);
  composition.bias = kv.getDouble("bias", composition.bias);
  for (const std::string& entry : kv.getAll("crash"))
    composition.crashes.push_back(parseCrash(entry));
  composition.minDelay = kv.getU64("min-delay", composition.minDelay);
  composition.maxDelay = kv.getU64("max-delay", composition.maxDelay);
  composition.adversary = getAdversary(kv);
  composition.earlyCommitDecision = kv.getU64("early-commit", 0) != 0;
  composition.maxRounds =
      kv.getNarrow<Round>("max-rounds", composition.maxRounds);
  composition.maxTicks = kv.getU64("max-ticks", composition.maxTicks);
  composition.fault = parsePlantedFault(kv.get("fault", "none"));
  {
    const std::string name = kv.get("scheduler", "lockstep");
    const auto policy = parseSchedulingPolicy(name);
    if (!policy)
      throw std::runtime_error("unknown scheduler '" + name +
                               "'; known: lockstep, event-driven, "
                               "ooo-driver");
    composition.scheduler = *policy;
  }
  composition.oracle = kv.get("oracle", composition.oracle);
  composition.oracleKnobs.completenessLag = kv.getU64(
      "oracle-completeness-lag", composition.oracleKnobs.completenessLag);
  composition.oracleKnobs.stabilizeAt =
      kv.getU64("oracle-stabilize-at", composition.oracleKnobs.stabilizeAt);
  composition.oracleKnobs.noise =
      kv.getDouble("oracle-noise", composition.oracleKnobs.noise);
  composition.oracleKnobs.noiseEpoch =
      kv.getU64("oracle-noise-epoch", composition.oracleKnobs.noiseEpoch);
  composition.oracleKnobs.lieAboutBound = kv.getU64("oracle-lie", 0) != 0;
  // Same gate as the CLI: a pairing the registry rejects must not load
  // from a file either, and with the identical diagnostic.
  resolve(composition);
  return composition;
}

}  // namespace ooc::compose
