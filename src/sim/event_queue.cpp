#include "sim/event_queue.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <utility>

#include "sim/run_arena.hpp"

namespace ooc {
namespace {

/// std::push_heap builds a max-heap; invert to get earliest-first.
struct OverflowOrder {
  bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    if (a.phase != b.phase) return a.phase > b.phase;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::Storage::clear() noexcept {
  // Clearing keeps capacity.
  for (Bucket& bucket : ring) bucket.reset();
  for (std::vector<SimEvent>& bucket : far) bucket.clear();
  stream.clear();
}

// A Simulator (and therefore an EventQueue) is confined to one thread for
// its lifetime, so a checker worker thread hands one storage from run to
// run and keeps the lane and far-bucket capacities hot across the whole
// sweep.
EventQueue::EventQueue() : storage_(run_arena::checkout<Storage>()) {
  if (storage_.ring.empty()) storage_.ring.resize(kWindow);
}

EventQueue::~EventQueue() { run_arena::recycle(std::move(storage_)); }

void EventQueue::push(SimEvent event) {
  event.seq = nextSeq_++;
  if (event.at < cursor_) event.at = cursor_;
  if (event.at - cursor_ < kWindow) {
    Bucket& bucket = storage_.ring[event.at & kMask];
    bucket.lanes[event.phase].push_back(std::move(event));
    ++ringCount_;
  } else if (const Tick span = spanOf(event.at);
             span > opened_ && span - opened_ <= kFarSpans) {
    // Not yet opened: the span's bucket stays in push (seq) order.
    storage_.far[span & kFarMask].push_back(std::move(event));
    ++farCount_;
  } else {
    overflow_.push_back(std::move(event));
    std::push_heap(overflow_.begin(), overflow_.end(), OverflowOrder{});
  }
  ++size_;
}

bool EventQueue::pop(SimEvent& out) {
  if (size_ == 0) return false;
  for (;;) {
    if (ringCount_ == 0) {
      // Everything left is beyond the window: jump the cursor to the
      // earliest pending tick (or just below it) instead of walking empty
      // buckets. The current bucket is drained but not yet reset (its last
      // event was popped on the previous call); reset it before the jump so
      // no stale drain positions survive.
      storage_.ring[cursor_ & kMask].reset();
      cursor_ = nextPendingBound();
      refill();
      continue;
    }
    Bucket& bucket = storage_.ring[cursor_ & kMask];
    // Normal lane strictly before the barrier lane — and re-checked after
    // every pop, so normal events appended while the barrier of the same
    // tick executes (onTick handlers sending with delay 0 clamped to the
    // cursor) are drained before any later barrier entry, exactly like
    // the old heap's (tick, phase, seq) order.
    for (int lane = 0; lane < 2; ++lane) {
      if (bucket.next[lane] < bucket.lanes[lane].size()) {
        out = std::move(bucket.lanes[lane][bucket.next[lane]++]);
        --ringCount_;
        --size_;
        return true;
      }
    }
    bucket.reset();
    ++cursor_;
    refill();
  }
}

Tick EventQueue::nextPendingBound() const noexcept {
  Tick bound = std::numeric_limits<Tick>::max();
  if (streamNext_ < storage_.stream.size())
    bound = storage_.stream[streamNext_].at;
  if (!overflow_.empty()) bound = std::min(bound, overflow_.front().at);
  if (farCount_ > 0) {
    // The first non-empty span starts no later than its earliest event.
    for (Tick span = opened_ + 1;; ++span) {
      if (!storage_.far[span & kFarMask].empty()) {
        bound = std::min(bound, span << kWindowBits);
        break;
      }
    }
  }
  return bound;
}

void EventQueue::refill() {
  // The span of the window's last tick, cursor_ + kWindow - 1.
  const Tick reach = spanOf(cursor_) + ((cursor_ & kMask) != 0 ? 1 : 0);
  while (opened_ < reach) {
    if (farCount_ == 0) {
      opened_ = reach;  // every span in between is empty
      break;
    }
    ++opened_;
    openSpan(storage_.far[opened_ & kFarMask]);
  }
  std::vector<SimEvent>& stream = storage_.stream;
  for (;;) {
    const bool fromStream = streamNext_ < stream.size() &&
                            stream[streamNext_].at - cursor_ < kWindow;
    const bool fromHeap =
        !overflow_.empty() && overflow_.front().at - cursor_ < kWindow;
    SimEvent event;
    if (fromStream &&
        (!fromHeap || OverflowOrder{}(overflow_.front(), stream[streamNext_]))) {
      event = std::move(stream[streamNext_++]);
    } else if (fromHeap) {
      std::pop_heap(overflow_.begin(), overflow_.end(), OverflowOrder{});
      event = std::move(overflow_.back());
      overflow_.pop_back();
    } else {
      break;
    }
    Bucket& bucket = storage_.ring[event.at & kMask];
    bucket.lanes[event.phase].push_back(std::move(event));
    ++ringCount_;
  }
}

void EventQueue::openSpan(std::vector<SimEvent>& bucket) {
  std::vector<SimEvent>& stream = storage_.stream;
  if (streamNext_ == stream.size()) {
    stream.clear();
    streamNext_ = 0;
  }
  if (bucket.empty()) return;
  farCount_ -= bucket.size();
  // Stable counting sort on (tick within the span, phase): each key keeps
  // push order, which is seq order, so the stream comes out in (at, phase,
  // seq) order behind everything already on it (earlier spans).
  const auto key = [](const SimEvent& event) {
    return ((event.at & kMask) << 1) | event.phase;
  };
  std::array<std::size_t, 2 * kWindow + 1> start{};
  for (const SimEvent& event : bucket) ++start[key(event) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  const std::size_t base = stream.size();
  stream.resize(base + bucket.size());
  for (SimEvent& event : bucket)
    stream[base + start[key(event)]++] = std::move(event);
  bucket.clear();
}

}  // namespace ooc
