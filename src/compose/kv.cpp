#include "compose/kv.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "obs/run_id.hpp"

namespace ooc::compose {

std::string configRunId(const std::string& serialized) {
  // Hash only the key=value payload: `#` comment lines (including a prior
  // stamp) are skipped, so hashing a stamped file reproduces the stamp.
  std::uint64_t hash = obs::kFnvOffsetBasis;
  std::istringstream in(serialized);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    hash = obs::fnv1a(line, hash);
    hash = obs::fnv1a("\n", hash);
  }
  return obs::toHex(hash);
}

std::string stampRunId(const std::string& body) {
  return "# run-id=" + configRunId(body) + "\n" + body;
}

namespace {

[[noreturn]] void badNumber(const std::string& what, const char* expected,
                            const std::string& token) {
  throw std::runtime_error("config: '" + what + "' expects " + expected +
                           ", got '" + token + "'");
}

template <typename Int>
Int parseWhole(const std::string& token, const std::string& what,
               const char* expected) {
  Int value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) badNumber(what, expected, token);
  return value;
}

}  // namespace

std::uint64_t parseU64(const std::string& token, const std::string& what) {
  // from_chars rejects a leading '-' for unsigned types, so "-1" cannot
  // wrap around to 2^64-1.
  return parseWhole<std::uint64_t>(token, what, "an unsigned integer");
}

std::int64_t parseI64(const std::string& token, const std::string& what) {
  return parseWhole<std::int64_t>(token, what, "an integer");
}

double parseDouble(const std::string& token, const std::string& what) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value))
    badNumber(what, "a finite number", token);
  return value;
}

KvReader::KvReader(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("config: malformed line '" + line + "'");
    entries_[line.substr(0, eq)].push_back(line.substr(eq + 1));
  }
}

std::string KvReader::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end())
    throw std::runtime_error("config: missing key '" + key + "'");
  return it->second.front();
}

const std::vector<std::string>& KvReader::getAll(const std::string& key) const {
  static const std::vector<std::string> kEmpty;
  const auto it = entries_.find(key);
  return it == entries_.end() ? kEmpty : it->second;
}

std::vector<Value> KvReader::getValues(const std::string& key) const {
  std::vector<Value> values;
  const std::string joined = get(key, "");
  std::istringstream in(joined);
  std::string token;
  while (std::getline(in, token, ','))
    if (!token.empty())
      values.push_back(parseI64(token, key));
  return values;
}

std::string crashEntry(const std::pair<ProcessId, Tick>& crash) {
  return std::to_string(crash.first) + "@" + std::to_string(crash.second);
}

std::string restartEntry(const RestartEntry& restart) {
  return std::to_string(restart.id) + "@" + std::to_string(restart.at) +
         "+" + std::to_string(restart.downtime);
}

std::pair<ProcessId, Tick> parseCrash(const std::string& entry) {
  const auto at = entry.find('@');
  if (at == std::string::npos)
    throw std::runtime_error("config: malformed crash '" + entry + "'");
  return {parseNarrow<ProcessId>(entry.substr(0, at), "crash"),
          parseU64(entry.substr(at + 1), "crash")};
}

RestartEntry parseRestart(const std::string& entry) {
  const auto at = entry.find('@');
  const auto plus = entry.find('+', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || plus == std::string::npos)
    throw std::runtime_error("config: malformed restart '" + entry + "'");
  RestartEntry restart;
  restart.id = parseNarrow<ProcessId>(entry.substr(0, at), "restart");
  restart.at = parseU64(entry.substr(at + 1, plus - at - 1), "restart");
  restart.downtime = parseU64(entry.substr(plus + 1), "restart");
  return restart;
}

void putAdversary(KvWriter& kv, const AdversaryOptions& adversary) {
  kv.put("adversary-budget", adversary.extraDelayMax);
  kv.put("adversary-prob", adversary.perturbProbability);
  kv.put("adversary-seed", adversary.seed);
}

AdversaryOptions getAdversary(const KvReader& kv) {
  AdversaryOptions adversary;
  adversary.extraDelayMax = kv.getU64("adversary-budget", 0);
  adversary.perturbProbability = kv.getDouble("adversary-prob", 1.0);
  adversary.seed = kv.getU64("adversary-seed", 1);
  return adversary;
}

}  // namespace ooc::compose
