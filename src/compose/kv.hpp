// The key=value wire format shared by every serializable configuration
// (compositions, Raft and service scenarios, counterexample files): one
// `key=value` pair per line, repeated keys for lists of structured entries
// (crash=pid@tick). Parsing is strict — malformed lines and malformed
// numbers throw — because a counterexample that silently loses a field
// reproduces nothing. One writer/reader and one run-id rule for all of
// them.
#pragma once

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compose/hooks.hpp"
#include "util/types.hpp"

namespace ooc::compose {

/// Deterministic run identifier for a serialized configuration: a 64-bit
/// FNV-1a hash of the key=value body (which includes the seed), rendered as
/// 16 lowercase hex characters. The same (config, seed) always maps to the
/// same id, so counterexample files, BENCH_*.json metrics and `ooc`
/// output can be correlated. Stamp lines (`# run-id=...`) are excluded from
/// the hash, making the id stable under re-serialization.
std::string configRunId(const std::string& serialized);

/// Prepends the deterministic `# run-id=<hex>` stamp line to a serialized
/// config body; parsers (old and new) skip `#` comments, so stamped files
/// remain backward and forward compatible.
std::string stampRunId(const std::string& body);

class KvWriter {
 public:
  void put(const std::string& key, const std::string& value) {
    os_ << key << '=' << value << '\n';
  }
  void put(const std::string& key, std::uint64_t value) {
    put(key, std::to_string(value));
  }
  void put(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << value;
    put(key, os.str());
  }
  void putValues(const std::string& key, const std::vector<Value>& values) {
    std::ostringstream os;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ',';
      os << values[i];
    }
    put(key, os.str());
  }

  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

/// Strict unsigned number token: the whole token must be the number — no
/// sign, no leading blanks, no trailing bytes, no overflow. Anything else
/// throws std::runtime_error naming `what` (the key). The same rule reads
/// consensus values (signed) and doubles (which must also be finite), in
/// KvReader's getters and the composition JSON reader alike.
std::uint64_t parseU64(const std::string& token, const std::string& what);
std::int64_t parseI64(const std::string& token, const std::string& what);
double parseDouble(const std::string& token, const std::string& what);

/// parseU64 for a field narrower than 64 bits: a value `Int` cannot hold
/// throws an out-of-range diagnostic naming `what`, where a cast would
/// wrap it (2^32 read into a 32-bit field loads as 0).
template <typename Int>
Int parseNarrow(const std::string& token, const std::string& what) {
  const std::uint64_t value = parseU64(token, what);
  if (value > static_cast<std::uint64_t>(std::numeric_limits<Int>::max()))
    throw std::runtime_error("config: '" + what + "' value " + token +
                             " is out of range");
  return static_cast<Int>(value);
}

class KvReader {
 public:
  explicit KvReader(const std::string& text);

  bool has(const std::string& key) const { return entries_.contains(key); }

  std::string get(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const {
    return has(key) ? get(key) : fallback;
  }
  std::uint64_t getU64(const std::string& key, std::uint64_t fallback) const {
    return has(key) ? parseU64(get(key), key) : fallback;
  }
  template <typename Int>
  Int getNarrow(const std::string& key, Int fallback) const {
    return has(key) ? parseNarrow<Int>(get(key), key) : fallback;
  }
  double getDouble(const std::string& key, double fallback) const {
    return has(key) ? parseDouble(get(key), key) : fallback;
  }
  const std::vector<std::string>& getAll(const std::string& key) const;
  std::vector<Value> getValues(const std::string& key) const;

 private:
  std::unordered_map<std::string, std::vector<std::string>> entries_;
};

/// `pid@tick` crash-schedule entries.
std::string crashEntry(const std::pair<ProcessId, Tick>& crash);
std::pair<ProcessId, Tick> parseCrash(const std::string& entry);

/// `pid@tick+downtime` crash-restart entries: process `id` crashes at `at`
/// and rejoins `downtime` ticks later with a fresh incarnation. The one
/// restart type of the Raft and service configs.
struct RestartEntry {
  ProcessId id = 0;
  Tick at = 0;
  Tick downtime = 50;
};
std::string restartEntry(const RestartEntry& restart);
RestartEntry parseRestart(const std::string& entry);

/// Delay-adversary triple (`adversary-budget/-prob/-seed`), shared by every
/// asynchronous family's serializer.
void putAdversary(KvWriter& kv, const AdversaryOptions& adversary);
AdversaryOptions getAdversary(const KvReader& kv);

}  // namespace ooc::compose
