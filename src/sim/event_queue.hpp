// The simulator's event queue: a tick-bucketed calendar queue replacing the
// former global binary heap.
//
// Events execute in (tick, phase, seq) order — phase 1 holds the lockstep
// barrier, which sorts after every normal event of its tick; seq is the
// push order. The queue exploits that almost every push targets a tick
// within a small horizon of the cursor (network delays are short and
// timers modest): a ring of kWindow buckets covers ticks
// [cursor, cursor + kWindow), each bucket holding its events as two
// append-only lanes (normal, barrier) drained in order. Same-tick pushes
// made *while* the tick drains land behind the drain index and are
// consumed in seq order, exactly like the heap.
//
// Events beyond the window wait in one of two places. Those due within
// kFarSpans aligned spans of kWindow ticks past the window go to that
// span's far bucket, appended in push order (Raft's election timers,
// re-armed 150-300 ticks ahead on every AppendEntries, are the bulk). When
// the window's last tick enters a span, the span is opened: a stable
// counting sort on (tick, phase) moves its bucket onto the back of the
// stream, which refills the ring in order as the window slides over it.
// Anything else (further out, or aimed past the window into the span
// already opened) goes to a min-heap overflow; refill() merges the stream
// and the heap in (tick, phase, seq) order. When the ring is empty the
// cursor jumps to the earliest pending tick's lower bound, so sparse
// schedules never scan empty buckets for long.
//
// Total order is identical to the heap's, so recorded traces are
// byte-identical across the swap (asserted by tests/golden/). It does not
// depend on kWindow or kFarSpans either: refill() runs after every cursor
// move, so an event due at tick T reaches T's lane before any direct push
// to T can (every such push comes later, with a larger seq), and a far
// bucket, the stream and the heap each hand out a tick's events in seq
// order.
//
// Per-event allocation is avoided twice over: events live by value in the
// bucket lanes and far buckets (which retain capacity across ticks), and
// that storage itself is checked out of the thread-local run arena
// (sim/run_arena.hpp) on construction and returned cleared on destruction —
// a model-checker worker thread reuses one warm storage across every
// configuration it sweeps, and a service run starts with the lanes and far
// buckets the last one grew.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/message.hpp"
#include "sim/trace.hpp"
#include "util/types.hpp"

namespace ooc {

/// One scheduled simulator event. Plain value type; `message` is a shared
/// immutable payload (broadcast fan-out and duplication faults alias it).
struct SimEvent {
  enum class Kind : std::uint8_t {
    kStart,
    kDeliver,
    kTimer,
    kControl,
    kBarrier,
    kCrash,
    kRestart,
  };

  Tick at = 0;
  /// Push order; assigned by EventQueue::push.
  std::uint64_t seq = 0;
  /// Observed-stream index of the event whose handler scheduled this one
  /// (kNoCausalParent for roots: initial starts, pre-run injections). Pure
  /// bookkeeping — never consulted by the scheduler, only surfaced through
  /// ScheduleObserver::onCausal, so it cannot perturb the schedule.
  std::uint64_t cause = kNoCausalParent;
  MessagePtr message;
  /// kTimer: the timer id. kControl: index into the simulator's action
  /// table (keeping std::function out of the hot event layout).
  TimerId timer = 0;
  ProcessId target = 0;
  ProcessId from = 0;
  /// For kDeliver: the target's incarnation at send time. A mismatch at
  /// delivery means the target restarted in between — the message belongs
  /// to its previous life and is discarded as stale.
  std::uint32_t targetIncarnation = 0;
  /// 0 = normal; 1 = barrier (sorts after all normal events of the tick).
  std::uint8_t phase = 0;
  Kind kind = Kind::kControl;
};

class EventQueue {
 public:
  /// Ring window: events within kWindow ticks of the cursor are bucketed.
  /// A ring retains its window times its busiest tick in lane capacity, so
  /// the window is kept small enough for that to sit well inside a core's
  /// L2 cache; longer delays (Raft's election timers) use the far buckets.
  static constexpr std::size_t kWindowBits = 6;
  static constexpr std::size_t kWindow = std::size_t{1} << kWindowBits;
  /// Far buckets: spans of kWindow ticks past the window's last span that
  /// take events in push order. Eight cover the 512 ticks after that span,
  /// past Raft's 300-tick election timeout.
  static constexpr std::size_t kFarSpans = 8;

  EventQueue();   // checks bucket storage out of the thread-local run arena
  ~EventQueue();  // returns it, cleared but with capacity retained
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `event`, assigning its seq. Ticks earlier than the cursor
  /// (never produced by the simulator: every delay is >= 1) are clamped to
  /// the cursor, i.e. executed as soon as possible.
  void push(SimEvent event);

  /// Moves the earliest event (by tick, then phase, then seq) into `out`.
  /// Returns false when the queue is empty.
  bool pop(SimEvent& out);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Internal storage layout; public only so the thread-local run arena
  /// (sim/run_arena.hpp) can pool it.
  struct Bucket {
    std::vector<SimEvent> lanes[2];  // [0] normal, [1] barrier
    std::size_t next[2] = {0, 0};    // drain positions

    bool drained() const noexcept {
      return next[0] >= lanes[0].size() && next[1] >= lanes[1].size();
    }
    void reset() noexcept {
      lanes[0].clear();
      lanes[1].clear();
      next[0] = next[1] = 0;
    }
  };
  struct Storage {
    std::vector<Bucket> ring;              // kWindow buckets, tick & kMask
    std::vector<SimEvent> far[kFarSpans];  // push order, span & kFarMask
    std::vector<SimEvent> stream;          // opened spans, in pop order

    /// The run arena's pooling pair: clear() empties every bucket and
    /// lane, keeping their capacity; capacity() is 0 only for a storage
    /// that holds no ring (fresh or moved-from), which is not pooled.
    void clear() noexcept;
    std::size_t capacity() const noexcept { return ring.size(); }
  };

 private:
  static constexpr std::size_t kMask = kWindow - 1;
  static constexpr std::size_t kFarMask = kFarSpans - 1;
  static_assert((kFarSpans & kFarMask) == 0, "kFarSpans is a power of two");

  /// The aligned span of kWindow ticks that `at` falls in.
  static Tick spanOf(Tick at) noexcept { return at >> kWindowBits; }

  /// Opens every span the window now reaches, then moves every stream and
  /// overflow event that now falls inside the window into its bucket, in
  /// (at, phase, seq) order; the window slides monotonically, so lane
  /// append order stays seq order.
  void refill();
  /// Moves a far bucket onto the back of the stream, in (at, phase, seq)
  /// order.
  void openSpan(std::vector<SimEvent>& bucket);
  /// With the ring empty: a tick no later than the earliest pending event.
  Tick nextPendingBound() const noexcept;

  // Every push and pop reads these four and the ring, so they come first
  // and share a cache line.
  Tick cursor_ = 0;                 // lowest possibly-populated tick
  std::size_t ringCount_ = 0;       // undrained events in the ring
  std::size_t size_ = 0;
  std::uint64_t nextSeq_ = 0;
  Storage storage_;                 // checked out of the arena
  Tick opened_ = 0;                 // last span moved onto the stream
  std::size_t streamNext_ = 0;      // drain position in storage_.stream
  std::size_t farCount_ = 0;        // events in the far buckets
  std::vector<SimEvent> overflow_;  // min-heap on (at, phase, seq)
};

}  // namespace ooc
