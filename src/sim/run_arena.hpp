// Thread-local scratch arenas for per-run simulation state.
//
// A Simulator is confined to one thread for its lifetime, and a sweep
// worker thread creates and destroys thousands of short-lived simulators
// back to back. Every per-run container with warm capacity worth keeping —
// the event queue's bucket storage, timer-owner tables, network scratch
// delays, control-action tables, trace event buffers — is pooled here, so
// a tiny run stops paying regrowth on every construction.
//
// checkout<T>() hands back a cleared T with warm capacity (or a fresh
// default one); recycle() returns it, cleared but with capacity retained.
// T is a std::vector or any type with the same clear()/capacity() pair.
// No locking: the pools are thread_local, matching the one-thread-per-
// simulator confinement. Pools are capped at a handful of entries so
// pathological use cannot hoard memory, and containers whose capacity is 0
// (e.g. moved-from trace buffers) are dropped instead of pooled.
//
// Pool occupancy is a pure function of construction/destruction order on
// one thread, so arena reuse cannot perturb schedules or recorded traces.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace ooc::run_arena {

/// Max pooled containers per (thread, type): a handful of live simulators
/// per thread is the realistic maximum.
inline constexpr std::size_t kPoolCap = 4;

namespace detail {
template <typename T>
std::vector<T>& pool() noexcept {
  thread_local std::vector<T> instance;
  return instance;
}
}  // namespace detail

/// A cleared T with warm capacity when the pool has one, else T{}.
template <typename T>
T checkout() {
  auto& pool = detail::pool<T>();
  if (pool.empty()) return T{};
  T out = std::move(pool.back());
  pool.pop_back();
  return out;
}

/// Returns `scratch` to this thread's pool (cleared, capacity retained).
/// Capacity-0 containers are dropped: pooling them would evict warm ones.
template <typename T>
  requires(!std::is_lvalue_reference_v<T>)
void recycle(T&& scratch) {
  if (scratch.capacity() == 0) return;
  auto& pool = detail::pool<T>();
  if (pool.size() >= kPoolCap) return;
  scratch.clear();
  pool.push_back(std::move(scratch));
}

/// Pooled containers of type T on this thread (test hook).
template <typename T>
std::size_t poolSize() noexcept {
  return detail::pool<T>().size();
}

/// Drops this thread's pool for T (test hook for memory accounting).
template <typename T>
void drain() noexcept {
  detail::pool<T>().clear();
}

}  // namespace ooc::run_arena
