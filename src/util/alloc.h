// Default-init vectors and first-touch placement helpers for the 10^8
// regime.
//
// Two problems show up once per-node arrays reach gigabytes:
//
//  1. std::vector<T>::resize value-initializes, so a fresh 3 GB
//     adjacency array is memset serially before the first real write —
//     wasted bandwidth when every slot is about to be overwritten.
//  2. Whichever thread performs that first write owns the page under
//     the kernel's first-touch NUMA policy. A serial zero-fill lands
//     every page on one node, and the lanes that later scan "their"
//     contiguous slice all pull across the interconnect.
//  3. Once glibc's dynamic mmap threshold has risen past an array's
//     size, a freed array stays in the freeing thread's arena and the
//     next allocation there reuses its pages: already placed by their
//     old owner, and at an arena offset that depends on which trials
//     ran on that thread before. Peak RSS then varies from run to run.
//
// PodVector<T> is std::vector with an allocator whose value-less
// construct() default-initializes (a no-op for trivial T), so resize()
// leaves memory untouched and the *real* writer of each page becomes
// its first toucher. sharded_fill() is the deliberate version: it fills
// a PodVector in the same contiguous chunks ThreadPool::
// parallel_for_range will later hand to the scanning lanes, so pages
// land next to the cores that will read them. Content is identical for
// every lane count (each index is written exactly once with the same
// value); only page placement differs. Blocks of kMappedArrayBytes or
// more are mapped from the kernel directly and unmapped on free, so
// every large array starts on fresh pages and holds memory only while
// it lives.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "util/thread_pool.h"

namespace slumber::util {

/// PodVector blocks at least this large bypass malloc (see above).
inline constexpr std::size_t kMappedArrayBytes = std::size_t{1} << 20;

namespace detail {
/// Anonymous private mapping of `bytes`; throws std::bad_alloc.
void* map_pages(std::size_t bytes);
void unmap_pages(void* p, std::size_t bytes);
}  // namespace detail

/// std::allocator whose argument-less construct() default-initializes
/// instead of value-initializing: resize() on trivial element types
/// allocates without touching the memory. All other constructions
/// (copy, fill, initializer-list) behave exactly like std::vector.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using std::allocator<T>::allocator;

  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  T* allocate(std::size_t n) {
    if (n * sizeof(T) < kMappedArrayBytes) {
      return std::allocator<T>::allocate(n);
    }
    return static_cast<T*>(detail::map_pages(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (n * sizeof(T) < kMappedArrayBytes) {
      std::allocator<T>::deallocate(p, n);
    } else {
      detail::unmap_pages(p, n * sizeof(T));
    }
  }

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Vector of trivially-copyable elements with default-init resize. The
/// graph CSR arrays and the bulk engine's per-node arrays use this so
/// first-touch initialization can be sharded (or skipped entirely when
/// every slot is about to be written).
template <typename T>
using PodVector = std::vector<T, DefaultInitAllocator<T>>;

/// Returns a PodVector of `size` copies of `value`. With a pool, the
/// fill shards into ThreadPool::parallel_for_range's contiguous chunks
/// so each lane first-touches the slice it will later scan; without
/// one, the fill is a plain serial loop. Contents are bitwise identical
/// either way.
template <typename T>
PodVector<T> sharded_fill(std::size_t size, T value, ThreadPool* pool) {
  PodVector<T> out;
  out.resize(size);  // default-init: no page is touched yet
  T* data = out.data();
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->parallel_for_range(
        size, [data, value](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) data[i] = value;
        });
  } else {
    for (std::size_t i = 0; i < size; ++i) data[i] = value;
  }
  return out;
}

}  // namespace slumber::util
