// Unit tests for the simulated stable-storage subsystem (src/store/): CRC
// integrity, the sync() durability barrier, crash fault injection (lost
// tails, torn tails, corrupted records) and recovery semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "store/wal.hpp"
#include "util/rng.hpp"

namespace ooc::store {
namespace {

TEST(Crc32, KnownVector) {
  // The CRC-32/IEEE check value: crc32("123456789") == 0xCBF43926.
  const char* text = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(text), 9),
            0xCBF43926u);
}

/// The plain one-byte-per-step CRC-32 the table-driven crc32 must match.
std::uint32_t bytewiseCrc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheBytewiseLoopAtEveryLengthAndOffset) {
  Rng rng(0xC3C3);
  std::vector<std::uint8_t> bytes(8 + 257);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 257; ++length) {
      const std::uint8_t* data = bytes.data() + offset;
      ASSERT_EQ(crc32(data, length), bytewiseCrc32(data, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t clean = crc32(bytes.data(), bytes.size());
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[at] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc32(bytes.data(), bytes.size()), clean);
      bytes[at] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
}

TEST(WriteAheadLog, SyncedRecordsRoundTrip) {
  WriteAheadLog wal;
  wal.append({1, 2, 3});
  wal.append({});
  wal.append({0xFFFF'FFFF'FFFF'FFFFull});
  wal.sync();

  RecoveryReport report;
  const auto records = wal.recover(&report);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(records[1].empty());
  EXPECT_EQ(records[2], (std::vector<std::uint64_t>{0xFFFF'FFFF'FFFF'FFFFull}));
  EXPECT_EQ(report.recordsRecovered, 3u);
  EXPECT_FALSE(report.tornTail);
  EXPECT_EQ(report.corruptRecords, 0u);
  EXPECT_EQ(report.bytesDiscarded, 0u);
}

TEST(WriteAheadLog, UnsyncedRecordsLostOnCrash) {
  WriteAheadLog wal;  // no fault injection: the whole tail vanishes
  wal.append({1});
  wal.sync();
  wal.append({2});
  wal.append({3});

  Rng rng(7);
  wal.crash(rng);
  const auto records = wal.recover();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (std::vector<std::uint64_t>{1}));
}

TEST(WriteAheadLog, SyncIsADurabilityBarrier) {
  WriteAheadLog wal;
  wal.append({1});
  EXPECT_GT(wal.pendingBytes(), 0u);
  EXPECT_EQ(wal.durableBytes(), 0u);
  wal.sync();
  EXPECT_EQ(wal.pendingBytes(), 0u);
  EXPECT_GT(wal.durableBytes(), 0u);
}

TEST(WriteAheadLog, TornTailNeverYieldsAPartialRecord) {
  // With tornTailProbability = 1 a crash flushes a random prefix of the
  // pending tail. Whatever survives must parse as complete records whose
  // payloads match what was appended — never a half-written one.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    FaultConfig faults;
    faults.tornTailProbability = 1.0;
    WriteAheadLog wal(faults);
    wal.append({10});
    wal.sync();
    wal.append({20, 21});
    wal.append({30, 31, 32});

    Rng rng(seed);
    wal.crash(rng);
    RecoveryReport report;
    const auto records = wal.recover(&report);
    ASSERT_GE(records.size(), 1u);
    ASSERT_LE(records.size(), 3u);
    EXPECT_EQ(records[0], (std::vector<std::uint64_t>{10}));
    if (records.size() >= 2) {
      EXPECT_EQ(records[1], (std::vector<std::uint64_t>{20, 21}));
    }
    if (records.size() == 3) {
      EXPECT_EQ(records[2], (std::vector<std::uint64_t>{30, 31, 32}));
    }
  }
}

TEST(WriteAheadLog, CorruptionTruncatesAtTheDamage) {
  // With corruptProbability = 1 a crash flips one bit somewhere in the
  // durable image. Recovery must never return a record at or past the
  // damage, and must flag the run as corrupt (or torn, if the flip hit a
  // length field and derailed framing).
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    FaultConfig faults;
    faults.corruptProbability = 1.0;
    WriteAheadLog wal(faults);
    wal.append({1, 11});
    wal.append({2, 22});
    wal.append({3, 33});
    wal.sync();

    Rng rng(seed);
    wal.crash(rng);
    RecoveryReport report;
    const auto records = wal.recover(&report);
    EXPECT_LT(records.size(), 3u);
    EXPECT_TRUE(report.corruptRecords > 0 || report.tornTail);
    EXPECT_GT(report.bytesDiscarded, 0u);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i],
                (std::vector<std::uint64_t>{i + 1, (i + 1) * 11}));
    }
  }
}

TEST(WriteAheadLog, RecoverySelfHealsAndIsIdempotent) {
  FaultConfig faults;
  faults.corruptProbability = 1.0;
  WriteAheadLog wal(faults);
  wal.append({1});
  wal.append({2});
  wal.append({3});
  wal.sync();
  Rng rng(3);
  wal.crash(rng);

  RecoveryReport first;
  const auto once = wal.recover(&first);
  // The first recovery truncated the journal to its clean prefix; a second
  // recovery sees a healthy log with the same contents.
  RecoveryReport second;
  const auto twice = wal.recover(&second);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(second.corruptRecords, 0u);
  EXPECT_FALSE(second.tornTail);
  EXPECT_EQ(second.bytesDiscarded, 0u);
  EXPECT_EQ(second.recordsRecovered, first.recordsRecovered);
}

TEST(WriteAheadLog, CrashIsDeterministicInTheRng) {
  FaultConfig faults;
  faults.tornTailProbability = 0.5;
  faults.corruptProbability = 0.5;
  const auto run = [&faults](std::uint64_t seed) {
    WriteAheadLog wal(faults);
    for (std::uint64_t i = 0; i < 6; ++i) wal.append({i, i * 3});
    wal.sync();
    for (std::uint64_t i = 0; i < 3; ++i) wal.append({100 + i});
    Rng rng(seed);
    wal.crash(rng);
    RecoveryReport report;
    auto records = wal.recover(&report);
    return std::make_pair(std::move(records), report.bytesDiscarded);
  };
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    EXPECT_EQ(run(seed), run(seed)) << "seed " << seed;
}

TEST(WriteAheadLog, CountersTrackOperations) {
  WriteAheadLog wal;
  EXPECT_EQ(wal.appends(), 0u);
  EXPECT_EQ(wal.syncs(), 0u);
  EXPECT_EQ(wal.crashes(), 0u);
  wal.append({1});
  wal.append({2});
  wal.sync();
  Rng rng(1);
  wal.crash(rng);
  EXPECT_EQ(wal.appends(), 2u);
  EXPECT_EQ(wal.syncs(), 1u);
  EXPECT_EQ(wal.crashes(), 1u);
}

TEST(WriteAheadLog, EmptyLogRecoversToNothing) {
  WriteAheadLog wal;
  RecoveryReport report;
  EXPECT_TRUE(wal.recover(&report).empty());
  EXPECT_EQ(report.recordsRecovered, 0u);
  EXPECT_FALSE(report.tornTail);
  Rng rng(1);
  wal.crash(rng);  // crash with nothing buffered is a no-op
  EXPECT_TRUE(wal.recover().empty());
}

}  // namespace
}  // namespace ooc::store
