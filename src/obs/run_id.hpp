// Deterministic run identifiers.
//
// A run id is the FNV-1a hash of a run's full serialized configuration
// (which includes the seed), rendered as 16 lowercase hex digits. Every
// artifact a run produces — the serialized scenario, the counterexample
// file, the bench/check JSON, the `ooc timeline` view — carries the same
// id, so artifacts from one run can be correlated across tools without
// any shared state or wall-clock timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ooc::obs {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

constexpr std::uint64_t fnv1a(std::string_view data,
                              std::uint64_t hash = kFnvOffsetBasis) noexcept {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// 16 lowercase hex digits of `hash`.
std::string toHex(std::uint64_t hash);

/// 16 lowercase hex digits of fnv1a(text).
std::string runId(std::string_view text);

}  // namespace ooc::obs
