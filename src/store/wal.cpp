#include "store/wal.hpp"

#include <array>

namespace ooc::store {
namespace {

std::array<std::uint32_t, 256> makeCrcTable() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

void putU32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t getU32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t getU64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(getU32(p)) |
         (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

constexpr std::size_t kHeaderBytes = 8;  // length:u32 + crc:u32

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

WriteAheadLog::WriteAheadLog(FaultConfig faults) noexcept : faults_(faults) {}

void WriteAheadLog::append(const std::vector<std::uint64_t>& words) {
  // The frame is written where it will sit: header, then payload, with the
  // CRC taken over the payload bytes in place.
  const std::size_t length = words.size() * 8;
  const std::size_t at = image_.size();
  image_.resize(at + kHeaderBytes + length);
  std::uint8_t* const frame = image_.data() + at;
  std::uint8_t* const payload = frame + kHeaderBytes;
  for (std::size_t i = 0; i < words.size(); ++i) {
    putU32(payload + i * 8, static_cast<std::uint32_t>(words[i]));
    putU32(payload + i * 8 + 4, static_cast<std::uint32_t>(words[i] >> 32));
  }
  putU32(frame, static_cast<std::uint32_t>(length));
  putU32(frame + 4, crc32(payload, length));
  ++appends_;
}

void WriteAheadLog::sync() {
  durableEnd_ = image_.size();
  ++syncs_;
}

void WriteAheadLog::crash(Rng& rng) {
  ++crashes_;
  const std::size_t pending = image_.size() - durableEnd_;
  if (pending != 0 && rng.chance(faults_.tornTailProbability)) {
    // A strict prefix of the unsynced tail reached the platter. It may
    // contain whole records (written but not fsynced — allowed to survive;
    // sync() only promises a lower bound) followed by a torn one.
    durableEnd_ += static_cast<std::size_t>(rng.below(pending));
  }
  image_.resize(durableEnd_);
  if (durableEnd_ != 0 && rng.chance(faults_.corruptProbability)) {
    const std::size_t at = static_cast<std::size_t>(rng.below(durableEnd_));
    image_[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
  }
}

std::vector<std::vector<std::uint64_t>> WriteAheadLog::recover(
    RecoveryReport* report) {
  RecoveryReport local;
  std::vector<std::vector<std::uint64_t>> records;
  std::size_t offset = 0;
  while (offset < durableEnd_) {
    if (durableEnd_ - offset < kHeaderBytes) {
      local.tornTail = true;  // header itself is partial
      break;
    }
    const std::uint32_t length = getU32(image_.data() + offset);
    const std::uint32_t crc = getU32(image_.data() + offset + 4);
    if (durableEnd_ - offset - kHeaderBytes < length) {
      local.tornTail = true;  // payload cut short by the crash
      break;
    }
    const std::uint8_t* payload = image_.data() + offset + kHeaderBytes;
    if (crc32(payload, length) != crc || length % 8 != 0) {
      // A full-size record that fails its checksum is corruption, not a
      // torn write. We cannot trust anything past it (lengths downstream
      // may themselves be garbage), so truncate here like the torn case.
      ++local.corruptRecords;
      break;
    }
    std::vector<std::uint64_t> words(length / 8);
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = getU64(payload + i * 8);
    }
    records.push_back(std::move(words));
    offset += kHeaderBytes + length;
  }
  local.recordsRecovered = records.size();
  local.bytesDiscarded = image_.size() - offset;
  image_.resize(offset);
  durableEnd_ = offset;
  if (report != nullptr) {
    *report = local;
  }
  return records;
}

}  // namespace ooc::store
