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
// The same module pools message blocks (allocateBlock/releaseBlock and
// BlockAllocator, used by makeMessage in sim/message.hpp). Requests up to
// kBlockMaxBytes fall into size classes kBlockStep bytes apart, and every
// block of a class is allocated at the class size, so any free block of a
// class serves any request in it. Each class keeps a per-thread stack of
// free blocks, capped at kBlockCap; larger requests and blocks past the cap
// go to ::operator new/delete. Every pooled block came from ::operator new,
// so a block may be released on any thread (it joins that thread's stack),
// and one released after its thread's pool is gone (thread exit) is simply
// deleted. Under AddressSanitizer both calls forward to ::operator
// new/delete, so quarantine and use-after-free reports still cover every
// message payload.
//
// Pool occupancy is a pure function of construction/destruction order on
// one thread, and nothing orders or hashes by address, so arena reuse
// cannot perturb schedules or recorded traces.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
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

// --- message blocks ---------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
#define OOC_RUN_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OOC_RUN_ARENA_ASAN 1
#endif
#endif

/// False under AddressSanitizer, where allocateBlock/releaseBlock forward
/// to ::operator new/delete.
#ifdef OOC_RUN_ARENA_ASAN
inline constexpr bool kBlockPoolEnabled = false;
#else
inline constexpr bool kBlockPoolEnabled = true;
#endif

/// Size classes step by kBlockStep bytes up to kBlockMaxBytes.
inline constexpr std::size_t kBlockStep = 16;
inline constexpr std::size_t kBlockMaxBytes = 128;
inline constexpr std::size_t kBlockClasses = kBlockMaxBytes / kBlockStep;
/// Free blocks kept per (thread, class): at most 1024 x (16 + 32 + ... +
/// 128) bytes = 576 KB per thread.
inline constexpr std::size_t kBlockCap = 1024;

namespace detail {

/// Index of the class serving a request of 1..kBlockMaxBytes bytes.
constexpr std::size_t blockClass(std::size_t bytes) noexcept {
  return bytes == 0 ? 0 : (bytes - 1) / kBlockStep;
}

/// Set when this thread's BlockPool is destroyed. Trivially destructible,
/// so it stays readable while the thread's other thread_locals are torn
/// down.
inline bool& blockPoolGone() noexcept {
  thread_local bool gone = false;
  return gone;
}

struct BlockPool {
  std::array<std::vector<void*>, kBlockClasses> free;
  std::uint64_t misses = 0;

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool() {
    blockPoolGone() = true;
    for (auto& list : free)
      for (void* block : list) ::operator delete(block);
  }
};

/// This thread's block pool, or nullptr once it was destroyed.
inline BlockPool* blockPool() noexcept {
  if (blockPoolGone()) return nullptr;
  thread_local BlockPool pool;
  return &pool;
}

}  // namespace detail

/// Storage for one message block of `bytes` bytes, aligned for any type
/// ::operator new serves. Release it with releaseBlock(block, bytes).
inline void* allocateBlock(std::size_t bytes) {
  if (!kBlockPoolEnabled || bytes > kBlockMaxBytes)
    return ::operator new(bytes);
  const std::size_t cls = detail::blockClass(bytes);
  if (detail::BlockPool* pool = detail::blockPool()) {
    auto& list = pool->free[cls];
    if (!list.empty()) {
      void* block = list.back();
      list.pop_back();
      return block;
    }
    ++pool->misses;
  }
  return ::operator new((cls + 1) * kBlockStep);
}

/// Returns a block from allocateBlock(bytes), on this or any other thread.
inline void releaseBlock(void* block, std::size_t bytes) noexcept {
  if (!kBlockPoolEnabled || bytes > kBlockMaxBytes) {
    ::operator delete(block);
    return;
  }
  detail::BlockPool* pool = detail::blockPool();
  if (pool != nullptr) {
    auto& list = pool->free[detail::blockClass(bytes)];
    if (list.size() < kBlockCap) {
      try {
        list.push_back(block);
        return;
      } catch (const std::bad_alloc&) {
        // The stack could not grow: delete the block instead.
      }
    }
  }
  ::operator delete(block);
}

/// Stateless allocator drawing from this thread's block pool; every
/// instance is interchangeable with every other.
template <typename T>
struct BlockAllocator {
  using value_type = T;

  BlockAllocator() noexcept = default;
  template <typename U>
  BlockAllocator(const BlockAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    return static_cast<T*>(allocateBlock(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    releaseBlock(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const BlockAllocator<U>&) const noexcept {
    return true;
  }
};

/// Free blocks in this thread's list for the class serving `bytes` (test
/// hook; 0 for requests the pool does not serve).
inline std::size_t blockPoolSize(std::size_t bytes) noexcept {
  if (!kBlockPoolEnabled || bytes > kBlockMaxBytes) return 0;
  const detail::BlockPool* pool = detail::blockPool();
  return pool == nullptr ? 0 : pool->free[detail::blockClass(bytes)].size();
}

/// Requests on this thread that a class's list could not serve (test hook).
inline std::uint64_t blockMisses() noexcept {
  const detail::BlockPool* pool = detail::blockPool();
  return pool == nullptr ? 0 : pool->misses;
}

}  // namespace ooc::run_arena
