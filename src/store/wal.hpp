// Simulated stable storage: a per-process write-ahead log with CRC-checked
// records, an explicit sync() durability barrier, and crash fault injection.
//
// The "device" is an in-memory byte image split in two regions:
//
//   [ durable bytes | pending bytes ]
//                   ^-- sync() moves this boundary to the right
//
// The two regions are one buffer and the index of the boundary between
// them. append() encodes a record in place at the pending tail; sync() is
// the fsync analogue that makes everything appended so far durable by
// moving the boundary to the end, copying nothing. crash() simulates
// power loss: pending bytes vanish — except, under fault injection, a torn
// prefix of them may reach the platter (a partially written tail record),
// and a byte of the durable region may flip (silent corruption, caught by
// the per-record CRC at recovery). recover() scans the durable image and
// returns every intact record in append order, truncating at the first
// torn or corrupt record exactly like a real log-structured store.
//
// Records are vectors of u64 words (enough for protocol metadata: term,
// vote, log entries, ballots, values); on the device each record is
//
//   [ length:u32 | crc32:u32 | payload bytes ]   (little-endian)
//
// Everything is deterministic: crash() draws from a caller-supplied Rng, so
// a simulation run containing storage faults is still a pure function of
// (configuration, seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ooc::store {

/// What recover() found while scanning the durable image.
struct RecoveryReport {
  std::size_t recordsRecovered = 0;  ///< intact records returned
  bool tornTail = false;             ///< partial record truncated at the end
  std::size_t corruptRecords = 0;    ///< CRC-mismatch records truncated
  std::size_t bytesDiscarded = 0;    ///< device bytes dropped by truncation
};

/// Fault injection applied at crash() time.
struct FaultConfig {
  /// Probability that a crash leaves a strict prefix of the unsynced tail
  /// on the device (a torn record for recovery to detect and truncate).
  double tornTailProbability = 0.0;
  /// Probability that a crash flips one bit somewhere in the durable
  /// region (silent corruption, detected by CRC at recovery).
  double corruptProbability = 0.0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

class WriteAheadLog {
 public:
  explicit WriteAheadLog(FaultConfig faults = {}) noexcept;

  /// Buffers one record at the pending tail. NOT durable until sync().
  void append(const std::vector<std::uint64_t>& words);

  /// Durability barrier: every record appended so far survives crashes.
  void sync();

  /// Simulated power loss. Unsynced bytes are lost; with fault injection a
  /// torn prefix of the pending tail may survive, and one durable bit may
  /// flip. Deterministic given `rng`.
  void crash(Rng& rng);

  /// Scans the durable image and returns every intact record in append
  /// order. Truncates the image at the first torn or corrupt record (so a
  /// subsequent append continues from a clean state) and discards any
  /// pending bytes. Idempotent when the image is clean.
  std::vector<std::vector<std::uint64_t>> recover(RecoveryReport* report = nullptr);

  // Introspection (used by harness metrics and tests).
  std::uint64_t appends() const noexcept { return appends_; }
  std::uint64_t syncs() const noexcept { return syncs_; }
  std::uint64_t crashes() const noexcept { return crashes_; }
  std::size_t durableBytes() const noexcept { return durableEnd_; }
  std::size_t pendingBytes() const noexcept {
    return image_.size() - durableEnd_;
  }
  const FaultConfig& faults() const noexcept { return faults_; }

 private:
  FaultConfig faults_;
  std::vector<std::uint8_t> image_;  // the device: durable, then pending
  std::size_t durableEnd_ = 0;       // bytes [0, durableEnd_) survive crash()
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t crashes_ = 0;
};

}  // namespace ooc::store
