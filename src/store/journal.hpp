// One journal codec for Raft, Paxos and the service (DESIGN §7.1): a record
// is a tag, fixed words and counted sections. RecordReader owns the rules
// for reading one, and Journal the sync-before-reply discipline. Each engine
// keeps its record tags beside its writers, and its semantic checks.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "store/wal.hpp"
#include "util/types.hpp"

namespace ooc::store {

/// A Value as a journal word and back: the two's-complement bits.
constexpr std::uint64_t toWord(Value v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}
constexpr Value toValue(std::uint64_t word) noexcept {
  return std::bit_cast<Value>(word);
}

/// A cursor over one record, read whole before the record is applied. A
/// read past the end returns 0. The tag is the first word(); an empty
/// record reads tag 0, which no engine uses.
class RecordReader {
 public:
  explicit RecordReader(std::span<const std::uint64_t> record) noexcept
      : words_(record) {}
  std::uint64_t word() noexcept {
    if (at_ < words_.size()) return words_[at_++];
    short_ = true;
    return 0;
  }
  /// A count word c, then c × stride words. c is checked against what is
  /// left by division, never by a sum: at + c × stride can wrap.
  std::span<const std::uint64_t> counted(std::size_t stride) noexcept {
    const std::uint64_t count = word();
    if (count > (words_.size() - at_) / stride) {
      short_ = true;
      return {};
    }
    const std::span<const std::uint64_t> section =
        words_.subspan(at_, count * stride);
    at_ += section.size();
    return section;
  }
  /// No read ran past the end and every word was read: a record is
  /// accepted only at its exact size.
  bool complete() const noexcept { return !short_ && at_ == words_.size(); }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t at_ = 0;
  bool short_ = false;
};

/// An engine's journal: a WriteAheadLog when durable, else none (and no
/// allocation), with the sync rule and the last recovery's report.
class Journal {
 public:
  Journal(bool durable, bool syncBeforeReply, FaultConfig storage)
      : wal_(durable ? std::make_unique<WriteAheadLog>(storage) : nullptr),
        syncBeforeReply_(syncBeforeReply) {}

  const WriteAheadLog* wal() const noexcept { return wal_.get(); }
  const RecoveryReport& lastRecovery() const noexcept { return lastRecovery_; }

  /// Appends, then syncs with syncBeforeReply: the state is durable before
  /// any reply that announces it.
  void persist(const std::vector<std::uint64_t>& record) {
    if (!wal_) return;
    wal_->append(record);
    if (syncBeforeReply_) wal_->sync();
  }
  void crash(Rng& rng) {
    if (wal_) wal_->crash(rng);
  }
  /// The records that survived the crash, in append order.
  std::vector<std::vector<std::uint64_t>> recover() {
    if (!wal_) return {};
    return wal_->recover(&lastRecovery_);
  }

 private:
  std::unique_ptr<WriteAheadLog> wal_;
  bool syncBeforeReply_;
  RecoveryReport lastRecovery_;
};

}  // namespace ooc::store
