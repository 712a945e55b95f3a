#include "compose/composition.hpp"

#include <cctype>
#include <stdexcept>

#include "compose/kv.hpp"
#include "obs/json.hpp"

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
      static_cast<Round>(kv.getU64("max-rounds", composition.maxRounds));
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

// ---------------------------------------------------------------------------
// JSON form
//
// The library's obs::JsonWriter is emission-only (the telemetry layer never
// reads JSON back), so the composition layer carries its own minimal strict
// parser: single document, objects/arrays/strings/numbers/bools/null,
// no trailing garbage.

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// String contents, or a number's raw token: the reader types each
  /// number by its key (asU64/asValue/asDouble), so a 64-bit seed never
  /// passes through a double.
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue value = parseValue();
    skipSpace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skipSpace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parseValue() {
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parseString();
        return v;
      }
      case 't':
      case 'f': return parseLiteralBool();
      case 'n': parseLiteral("null"); return JsonValue{};
      default: return parseNumber();
    }
  }

  void parseLiteral(const char* literal) {
    for (const char* c = literal; *c != '\0'; ++c) {
      if (pos_ >= text_.size() || text_[pos_] != *c)
        fail(std::string("malformed literal (expected ") + literal + ")");
      ++pos_;
    }
  }

  JsonValue parseLiteralBool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_[pos_] == 't') {
      parseLiteral("true");
      v.boolean = true;
    } else {
      parseLiteral("false");
    }
    return v;
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.string = text_.substr(start, pos_ - start);
    return v;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        default: fail("unsupported escape");  // \uXXXX never emitted here
      }
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parseValue());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = parseString();
      expect(':');
      v.object.emplace_back(std::move(key), parseValue());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

const std::string& numberToken(const JsonValue& v, const char* key) {
  if (v.kind != JsonValue::Kind::kNumber)
    throw std::runtime_error(std::string("json: '") + key +
                             "' must be a number");
  return v.string;
}

// The kv reader's whole-token rules: no fractions, signs or exponents in
// integers, no wrap-around, finite doubles only.
std::uint64_t asU64(const JsonValue& v, const char* key) {
  return parseU64(numberToken(v, key), key);
}

Value asValue(const JsonValue& v, const char* key) {
  return parseI64(numberToken(v, key), key);
}

double asDouble(const JsonValue& v, const char* key) {
  return parseDouble(numberToken(v, key), key);
}

const std::string& asString(const JsonValue& v, const char* key) {
  if (v.kind != JsonValue::Kind::kString)
    throw std::runtime_error(std::string("json: '") + key +
                             "' must be a string");
  return v.string;
}

bool asBool(const JsonValue& v, const char* key) {
  if (v.kind != JsonValue::Kind::kBool)
    throw std::runtime_error(std::string("json: '") + key +
                             "' must be a boolean");
  return v.boolean;
}

}  // namespace

std::string toJson(const Composition& composition) {
  obs::JsonWriter json;
  json.beginObject();
  json.key("schema").value("ooc.composition.v1");
  json.key("detector").value(composition.detector);
  json.key("driver").value(composition.driver);
  json.key("n").value(static_cast<std::uint64_t>(composition.n));
  json.key("t");
  if (composition.t) {
    json.value(static_cast<std::uint64_t>(*composition.t));
  } else {
    json.raw("null");
  }
  json.key("byzantine")
      .value(static_cast<std::uint64_t>(composition.byzantineCount));
  json.key("byz_strategy").value(composition.byzantineStrategy);
  json.key("placement").value(toString(composition.placement));
  json.key("inputs").beginArray();
  for (const Value input : composition.inputs)
    json.value(static_cast<std::int64_t>(input));
  json.endArray();
  json.key("seed").value(composition.seed);
  json.key("bias").value(composition.bias);
  json.key("crashes").beginArray();
  for (const auto& crash : composition.crashes) json.value(crashEntry(crash));
  json.endArray();
  json.key("min_delay").value(composition.minDelay);
  json.key("max_delay").value(composition.maxDelay);
  json.key("adversary_budget").value(composition.adversary.extraDelayMax);
  json.key("adversary_prob").value(composition.adversary.perturbProbability);
  json.key("adversary_seed").value(composition.adversary.seed);
  json.key("early_commit").value(composition.earlyCommitDecision);
  json.key("max_rounds")
      .value(static_cast<std::uint64_t>(composition.maxRounds));
  json.key("max_ticks").value(composition.maxTicks);
  json.key("fault").value(toString(composition.fault));
  if (composition.scheduler != SchedulingPolicy::kLockstep)  // wire purity
    json.key("scheduler").value(toString(composition.scheduler));
  if (!composition.oracle.empty()) {  // zero-cost when no oracle attached
    json.key("oracle").value(composition.oracle);
    json.key("oracle_completeness_lag")
        .value(composition.oracleKnobs.completenessLag);
    json.key("oracle_stabilize_at").value(composition.oracleKnobs.stabilizeAt);
    json.key("oracle_noise").value(composition.oracleKnobs.noise);
    json.key("oracle_noise_epoch").value(composition.oracleKnobs.noiseEpoch);
    json.key("oracle_lie").value(composition.oracleKnobs.lieAboutBound);
  }
  json.endObject();
  return json.str();
}

Composition fromJson(const std::string& text) {
  const JsonValue doc = JsonParser(text).parseDocument();
  if (doc.kind != JsonValue::Kind::kObject)
    throw std::runtime_error("json: composition must be an object");
  Composition composition;
  for (const auto& [key, value] : doc.object) {
    if (key == "schema") {
      if (asString(value, "schema") != "ooc.composition.v1")
        throw std::runtime_error("json: unsupported schema '" + value.string +
                                 "'");
    } else if (key == "detector") {
      composition.detector = asString(value, "detector");
    } else if (key == "driver") {
      composition.driver = asString(value, "driver");
    } else if (key == "n") {
      composition.n = asU64(value, "n");
    } else if (key == "t") {
      if (value.kind != JsonValue::Kind::kNull)
        composition.t = asU64(value, "t");
    } else if (key == "byzantine") {
      composition.byzantineCount = asU64(value, "byzantine");
    } else if (key == "byz_strategy") {
      composition.byzantineStrategy = asString(value, "byz_strategy");
    } else if (key == "placement") {
      composition.placement = parsePlacement(asString(value, "placement"));
    } else if (key == "inputs") {
      if (value.kind != JsonValue::Kind::kArray)
        throw std::runtime_error("json: 'inputs' must be an array");
      composition.inputs.clear();
      for (const JsonValue& input : value.array)
        composition.inputs.push_back(asValue(input, "inputs[]"));
    } else if (key == "seed") {
      composition.seed = asU64(value, "seed");
    } else if (key == "bias") {
      composition.bias = asDouble(value, "bias");
    } else if (key == "crashes") {
      if (value.kind != JsonValue::Kind::kArray)
        throw std::runtime_error("json: 'crashes' must be an array");
      composition.crashes.clear();
      for (const JsonValue& crash : value.array)
        composition.crashes.push_back(parseCrash(asString(crash, "crashes[]")));
    } else if (key == "min_delay") {
      composition.minDelay = asU64(value, "min_delay");
    } else if (key == "max_delay") {
      composition.maxDelay = asU64(value, "max_delay");
    } else if (key == "adversary_budget") {
      composition.adversary.extraDelayMax = asU64(value, "adversary_budget");
    } else if (key == "adversary_prob") {
      composition.adversary.perturbProbability =
          asDouble(value, "adversary_prob");
    } else if (key == "adversary_seed") {
      composition.adversary.seed = asU64(value, "adversary_seed");
    } else if (key == "early_commit") {
      composition.earlyCommitDecision = asBool(value, "early_commit");
    } else if (key == "max_rounds") {
      composition.maxRounds = static_cast<Round>(asU64(value, "max_rounds"));
    } else if (key == "max_ticks") {
      composition.maxTicks = asU64(value, "max_ticks");
    } else if (key == "fault") {
      composition.fault = parsePlantedFault(asString(value, "fault"));
    } else if (key == "scheduler") {
      const std::string& name = asString(value, "scheduler");
      const auto policy = parseSchedulingPolicy(name);
      if (!policy)
        throw std::runtime_error("json: unknown scheduler '" + name +
                                 "'; known: lockstep, event-driven, "
                                 "ooo-driver");
      composition.scheduler = *policy;
    } else if (key == "oracle") {
      composition.oracle = asString(value, "oracle");
    } else if (key == "oracle_completeness_lag") {
      composition.oracleKnobs.completenessLag =
          asU64(value, "oracle_completeness_lag");
    } else if (key == "oracle_stabilize_at") {
      composition.oracleKnobs.stabilizeAt =
          asU64(value, "oracle_stabilize_at");
    } else if (key == "oracle_noise") {
      composition.oracleKnobs.noise = asDouble(value, "oracle_noise");
    } else if (key == "oracle_noise_epoch") {
      composition.oracleKnobs.noiseEpoch =
          asU64(value, "oracle_noise_epoch");
    } else if (key == "oracle_lie") {
      composition.oracleKnobs.lieAboutBound = asBool(value, "oracle_lie");
    } else {
      throw std::runtime_error("json: unknown composition key '" + key + "'");
    }
  }
  resolve(composition);  // identical diagnostic to every other parse path
  return composition;
}

}  // namespace ooc::compose
