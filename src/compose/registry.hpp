// The central object registry (the composition engine's name service).
//
// Every agreement detector, driver, and failure-detector oracle in the
// library registers here under a stable string name — the names scenario
// files put on the wire ("local-coin", "vac-from-two-ac", ...) — together
// with a capability descriptor (capability.hpp; OracleCapability below for
// the oracle family). A Composition references objects purely by name;
// the registry resolves the names, validates the pairing against the
// capability rules, and hands runComposition() the factories.
//
// Registration is open: extensions can add objects at startup (tests
// exercise this), and duplicate names are rejected so two objects can
// never silently shadow each other.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compose/capability.hpp"
#include "core/objects.hpp"
#include "core/scheduling.hpp"
#include "fd/oracle.hpp"
#include "sim/process.hpp"

namespace ooc::compose {

/// Everything a factory may depend on, resolved from the Composition:
/// n, the protocol parameter t, the run seed (shared-coin derivation) and
/// the biased-coin probability.
struct ObjectParams {
  std::size_t n = 0;
  std::size_t t = 0;
  std::uint64_t seed = 1;
  double bias = 0.5;
};

struct DetectorEntry {
  std::string name;
  DetectorCapability capability;
  /// Builds the per-round detector factory for one correct process.
  std::function<DetectorFactory(const ObjectParams&)> make;
  /// Builds a planted attacker for one faulty slot (Byzantine-model
  /// detectors only; null otherwise). `strategy` is the serialized
  /// strategy name; unknown names throw.
  std::function<std::unique_ptr<Process>(const ObjectParams&,
                                         const std::string& strategy)>
      makeFaulty;
};

struct DriverEntry {
  std::string name;
  DriverCapability capability;
  std::function<DriverFactory(const ObjectParams&)> make;
  /// Oracle-consuming drivers (capability.oracle != kNone) build their
  /// factory with the resolved oracle bound; `make` is null for them and
  /// `makeWithOracle` is null for everyone else.
  std::function<DriverFactory(const ObjectParams&,
                              std::shared_ptr<const fd::Oracle>)>
      makeWithOracle;
};

/// What a registered oracle is: which Chandra–Toueg class it models. The
/// knobs (lag, noise, stabilization) are run parameters, not capability —
/// the same registered oracle serves every quality point of the sweep.
struct OracleCapability {
  fd::OracleClass oracleClass = fd::OracleClass::kOmega;
};

struct OracleEntry {
  std::string name;
  OracleCapability capability;
  /// Builds the run's oracle instance from the resolved parameters, the
  /// quality knobs, and the run's fault schedule.
  std::function<std::shared_ptr<const fd::Oracle>(
      const ObjectParams&, const fd::OracleKnobs&, const fd::FaultSchedule&)>
      make;
};

class Registry {
 public:
  /// All three throw std::invalid_argument on a duplicate name.
  void registerDetector(DetectorEntry entry);
  void registerDriver(DriverEntry entry);
  void registerOracle(OracleEntry entry);

  /// Lookup by name; throws std::invalid_argument listing the known names
  /// when `name` is not registered.
  const DetectorEntry& detector(const std::string& name) const;
  const DriverEntry& driver(const std::string& name) const;
  const OracleEntry& oracle(const std::string& name) const;

  bool hasDetector(const std::string& name) const noexcept;
  bool hasDriver(const std::string& name) const noexcept;
  bool hasOracle(const std::string& name) const noexcept;

  /// Registration order (stable across runs: builtins register in one
  /// deterministic sequence).
  std::vector<std::string> detectorNames() const;
  std::vector<std::string> driverNames() const;
  std::vector<std::string> oracleNames() const;

  /// Capability check for a resolved pairing: nullopt when the composition
  /// is an algorithm, otherwise the human-readable diagnostic (citing the
  /// paper's §5 argument where it applies). Unknown names throw, as in
  /// detector()/driver().
  std::optional<std::string> validatePairing(
      const std::string& detectorName, const std::string& driverName) const;

  /// Capability check for the driver × oracle side of a composition:
  /// nullopt when coherent, otherwise the diagnostic. `oracleName` empty
  /// means no oracle attached (valid exactly when the driver consumes
  /// none). Unknown names throw, as in oracle().
  std::optional<std::string> validateOracle(
      const std::string& driverName, const std::string& oracleName,
      const fd::OracleKnobs& knobs) const;

  /// Scheduling-policy coherence gate: nullopt when both objects of the
  /// pairing run correctly under `policy`, otherwise the diagnostic.
  /// Lockstep is always coherent (it is the engine every object was built
  /// against); non-lockstep policies require async-mode, skew-tolerant
  /// objects on both sides (see DESIGN.md §14). Unknown names throw, as in
  /// detector()/driver().
  std::optional<std::string> validateScheduling(
      const std::string& detectorName, const std::string& driverName,
      SchedulingPolicy policy) const;

 private:
  std::vector<DetectorEntry> detectors_;
  std::vector<DriverEntry> drivers_;
  std::vector<OracleEntry> oracles_;
};

/// The process-wide registry, with the library's builtin objects
/// registered on first use (lazily, so static initialization order and
/// static-library dead stripping cannot lose them).
Registry& registry();

}  // namespace ooc::compose
