// Classic Ben-Or (1983), implemented monolithically — no template, no
// objects. Serves as the baseline for experiment E1: the decomposed version
// (BenOrVac + CoinReconciliator in ConsensusProcess) must reproduce its
// behaviour, which is evidence that the paper's decomposition is faithful.
//
// The implementation deliberately shares no code with the object version.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "util/types.hpp"

namespace ooc::benor {

/// Round-tagged wire message of the monolithic implementation.
struct ClassicMessage final : MessageBase<ClassicMessage> {
  ClassicMessage(Round round, int phase, bool ratify, Value value)
      : round(round), phase(phase), ratify(ratify), value(value) {}

  Round round;
  int phase;    // 1 = proposal, 2 = report
  bool ratify;  // meaningful for phase 2
  Value value;

  std::string describe() const override {
    return "classic<r" + std::to_string(round) + ",p" +
           std::to_string(phase) + "," + std::to_string(value) +
           (phase == 2 && ratify ? ",ratify>" : ">");
  }
};

class MonolithicBenOr final : public Process {
 public:
  MonolithicBenOr(Value input, std::size_t faultTolerance,
                  Round maxRounds = 100000);

  void onStart() override;
  void onMessage(ProcessId from, const Message& message) override;

  bool decided() const noexcept { return decided_; }
  Value decisionValue() const noexcept { return decisionValue_; }
  Round decisionRound() const noexcept { return decisionRound_; }
  Round currentRound() const noexcept { return round_; }

 private:
  /// One round's messages, one slot per sender (a repeat is ignored).
  struct RoundTally {
    struct Slot {
      bool hasProposal = false;
      bool hasReport = false;
      bool ratify = false;
      Value proposal = kNoValue;
      Value report = kNoValue;  // the ratified value when `ratify`
    };
    std::vector<Slot> from;
    std::size_t proposals = 0;
    std::size_t reports = 0;
    std::optional<Value> anyRatified;
    bool reportSent = false;
  };

  RoundTally& tally(Round r);
  void enterRound(Round r);
  void tryAdvance();

  Value preference_;
  std::size_t t_;
  Round maxRounds_;

  Round round_ = 0;
  bool decided_ = false;
  Value decisionValue_ = kNoValue;
  Round decisionRound_ = 0;

  std::map<Round, RoundTally> tallies_;
};

}  // namespace ooc::benor
