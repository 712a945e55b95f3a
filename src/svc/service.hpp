// The multi-decree replicated-log SERVICE: state-machine replication in
// which every decree is one instance of a pluggable single-shot consensus
// engine — the paper's generic template with any registered
// detector/driver pair, or a PaxosNode — hosted behind a per-decree
// Context adapter that envelopes its traffic with the decree number and
// captures its decide(). At window = 1 and batchMax = 1 this is the plain
// sequential log (one command per decree, one decree at a time); the
// knobs generalize it:
//
//  * Pipelining. A node may open decree k+1 while decree k is still
//    settling, up to `window` decrees beyond its lowest undecided decree
//    (multi-Paxos-style). Opens are always CONTIGUOUS: traffic for a
//    not-yet-opened decree makes the node open everything up to it, so a
//    quorum forms for every decree even at nodes with nothing to propose.
//  * Batching. Client commands are packed into batches of up to
//    `batchMax`; the 64-bit consensus Value carries the BATCH ID, and the
//    payload travels out-of-band (BatchAnnounce at formation, BatchFetch
//    for nodes that must apply a batch they never received). A batch that
//    loses its decree is re-proposed in a later one; a batch is re-proposed
//    only after its decree's outcome is known, so no batch can ever win two
//    decrees. Each announce BINDS the batch to the decree it is proposed
//    in, and a node joining that decree with nothing of its own ECHOES the
//    bound batch instead of a no-op — otherwise a lone proposer starves
//    under fixed-delay schedules (the no-op joiners' driver quorums close
//    among themselves and decide no-op forever). The echo cannot make a
//    batch win twice: a joiner never re-proposes a foreign batch, and the
//    owner re-binds only after the old decree decided against it, at which
//    point that decree's outcome is fixed by consensus agreement.
//  * Client traffic. Commands arrive through the node's ClientFront
//    (svc/workload.hpp, the same front RaftLogNode owns): a deterministic
//    Workload (closed- or open-loop, zipfian keys) on a timer, so the
//    service runs under the plain asynchronous scheduler. The front mints
//    the command ids and keeps the apply ledger runSvc reads; the node
//    records one commit tick per live decree and one batch size per
//    applied batch, and commits feed back into the closed loop.
//  * Idle detection. Decrees are opened proactively only when there is
//    work (a pending command or an unassigned batch) and reactively only
//    on peer traffic, so a drained cluster quiesces and the simulator's
//    event queue runs dry — no stop predicate needed.
//
// Durability and recovery (the PR 3 persistence discipline mapped onto the
// log). With `durable`, the node journals four record kinds to a
// store::WriteAheadLog — command minted, batch formed, decree opened,
// decree committed — syncing per `syncBeforeReply`. On restart it replays
// the journal and then CATCHES UP: it fans out a CatchupRequest and peers
// reply with their applied prefix plus the batch payloads it needs.
//
// The safety subtlety is re-joining in-flight decrees: the engines
// themselves are volatile (a restarted Ben-Or or Paxos participant has
// forgotten its votes and promises), so a recovered node must NOT
// re-enter any decree its previous incarnation may have participated in.
// The journaled opens give the exact boundary (`quarantine`): the node
// abstains from every decree below it and learns those outcomes through
// catch-up, while the fault budget t covers its absence. A non-durable
// restart has no journal, so the node abstains from everything until the
// first catch-up reply and then derives a conservative boundary from the
// responder's applied prefix plus the pipeline depth. As with the Paxos
// node, `syncBeforeReply = false` deliberately re-opens the
// crash-before-sync window (a truncated journal under-estimates the
// quarantine) — that is the fault surface the checker explores, not a bug.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/process.hpp"
#include "store/journal.hpp"
#include "svc/messages.hpp"
#include "svc/workload.hpp"

namespace ooc::svc {

/// The reserved "empty decree" value decided when no batch wins.
inline constexpr Value kNoopBatch = 0;

/// Packs (node, sequence) into a globally unique batch id. Bit 62 keeps
/// batch ids disjoint from command ids, which share the packing below it.
constexpr Value makeBatchId(ProcessId node, std::uint32_t seq) noexcept {
  return static_cast<Value>((std::uint64_t{1} << 62) |
                            (static_cast<std::uint64_t>(node + 1) << 32) |
                            seq);
}
constexpr ProcessId batchNode(Value batchId) noexcept {
  return static_cast<ProcessId>(
             (static_cast<std::uint64_t>(batchId) >> 32) & 0x3FFFFFFFu) -
         1;
}

/// Builds the single-shot consensus engine for one decree. `proposal` is
/// the batch id this node puts forward (kNoopBatch when it joins the
/// decree reactively with nothing to propose); `proposer` mirrors
/// `proposal != kNoopBatch` so engine families with an active/passive
/// distinction (Paxos) can gate their ballot drivers on it. Randomized
/// engines whose processes share a seed (e.g. the lottery) MUST mix the
/// decree into it: template rounds restart at 1 in every decree, so a
/// decree-agnostic shared draw would crown the same winner in every
/// decree's round 1 — a drained node's no-op could then win forever
/// (livelock).
using EngineFactory = std::function<std::unique_ptr<Process>(
    std::uint64_t decree, Value proposal, bool proposer)>;

struct SvcNodeOptions {
  /// Pipeline depth: decrees this node may open beyond its lowest
  /// undecided decree. 1 decides one decree at a time.
  std::uint64_t window = 2;
  /// Maximum client commands packed into one batch.
  std::size_t batchMax = 4;
  /// Upper bound on decrees, as a runaway guard.
  std::uint64_t maxDecrees = 10000;
  /// Journal commands/batches/opens/commits to a write-ahead log.
  bool durable = false;
  /// Sync each journal append at once (store::Journal::persist, the safe
  /// discipline); false re-opens the crash-before-sync window on purpose.
  bool syncBeforeReply = true;
  /// Storage fault injection applied when a crash hits the journal.
  store::FaultConfig storage;
};

class SvcNode final : public Process {
 public:
  SvcNode(EngineFactory engineFactory, ClientFront front,
          SvcNodeOptions options);
  ~SvcNode() override;

  void onStart() override;
  void onRestart() override;
  void onCrash() override { journal_.crash(ctx().rng()); }
  void onMessage(ProcessId from, const Message& message) override;
  void onTimer(TimerId id) override;

  // --- observation (used by runSvc audits and metrics) ---

  /// Applied batch id per decree, in decree order (kNoopBatch for empty
  /// decrees). Cleared by a restart and rebuilt from journal + catch-up.
  const std::vector<Value>& decreeLog() const noexcept { return decreeLog_; }
  std::uint64_t noopDecrees() const noexcept { return noopDecrees_; }
  /// Applied commands, arrivals and latencies. Its duplicate count must
  /// stay 0 here: a batch is re-proposed only after it provably lost its
  /// decree.
  const ClientFront& front() const noexcept { return front_; }
  /// The restart's quarantine boundary, and the journal (null unless durable).
  std::uint64_t quarantine() const noexcept { return quarantine_; }
  const store::WriteAheadLog* wal() const noexcept { return journal_.wal(); }

 private:
  class DecreeContextImpl;
  struct ActiveDecree {
    std::unique_ptr<DecreeContextImpl> context;
    std::unique_ptr<Process> engine;
  };

  // Journal record tags (first word of each record).
  enum : std::uint64_t {
    kRecCmd = 1,     ///< {tag, command}
    kRecBatch = 2,   ///< {tag, batchId, n, commands...}
    kRecOpen = 3,    ///< {tag, decree, proposal}
    kRecCommit = 4,  ///< {tag, decree, batchId, n, commands...}
  };

  void recoverFromJournal();

  void handleArrivals();

  Value takeProposal(std::uint64_t decree);
  void formAndOpen();
  void openThrough(std::uint64_t decree);
  void openDecree(std::uint64_t decree);
  /// The live engine for `decree`, or null outside the ring.
  ActiveDecree* findActive(std::uint64_t decree) noexcept;

  void handleDecreeTraffic(ProcessId from, const DecreeMessage& envelope);
  void onDecreeDecided(std::uint64_t decree, Value winner);
  void recordDecided(std::uint64_t decree, Value winner);
  void applyReady();
  void requestMissingBatch(Value batchId);
  void pruneRetired();
  void fireCatchup();
  void replyCatchup(ProcessId to, std::uint64_t fromDecree);
  void mergeCatchup(const CatchupReply& reply);

  EngineFactory engineFactory_;
  SvcNodeOptions options_;
  ClientFront front_;

  // --- batching ---
  std::uint32_t batchSeq_ = 0;  ///< per-incarnation
  std::deque<Value> pendingCmds_;
  /// Formed batches awaiting (re-)proposal.
  std::deque<Value> unassigned_;
  /// Batch id -> payload; retained after apply to serve fetch/catch-up.
  std::unordered_map<Value, std::vector<Value>> batchStore_;

  // --- decree pipeline ---
  /// Live engines, one per decree from `activeBase_` up. Opens are
  /// contiguous and prunes retire the lowest decree, so a ring indexed from
  /// the lowest live decree holds them with no gaps.
  std::deque<ActiveDecree> active_;
  std::uint64_t activeBase_ = 0;  ///< decree of active_.front()
  std::map<TimerId, std::uint64_t> timerDecree_;
  /// Decided but not yet applied (applies are strictly in decree order).
  std::map<std::uint64_t, Value> decided_;
  /// Decree -> the OWN batch this node proposed there; consumed when the
  /// outcome is known (requeued on loss). Survives restarts via kRecOpen.
  /// Echoed foreign batches never enter: requeueing one would bind it to
  /// two decrees at once, the exact double-win the discipline rules out.
  std::map<std::uint64_t, Value> openProposals_;
  /// Decree -> batch an announce bound to it (first binding wins); a node
  /// opening the decree with no work of its own echoes this instead of a
  /// no-op. Volatile: after a restart the echo is simply unavailable.
  std::map<std::uint64_t, Value> announcedBinding_;
  std::uint64_t firstUndecided_ = 0;
  std::uint64_t nextOpen_ = 0;
  std::uint64_t commitIndex_ = 0;  ///< next decree to apply
  /// Engines pruned mid-handler park here until the next top-level event
  /// (the pruning call may sit below the pruned engine's own frame).
  std::vector<ActiveDecree> graveyard_;

  // --- applied state ---
  std::vector<Value> decreeLog_;
  std::unordered_set<Value> committedBatches_;
  std::uint64_t noopDecrees_ = 0;

  // --- timers ---
  TimerId fetchTimer_ = 0;
  TimerId catchupTimer_ = 0;
  int catchupTries_ = 0;

  // --- durability + recovery ---
  store::Journal journal_;
  /// Decrees below this may hold the previous incarnation's votes; the
  /// node never hosts engines for them (outcomes arrive via catch-up).
  std::uint64_t quarantine_ = 0;
  /// Non-durable restart: abstain from everything until the first
  /// catch-up reply supplies a conservative quarantine.
  bool recovering_ = false;
};

}  // namespace ooc::svc
