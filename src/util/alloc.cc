#include "util/alloc.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <new>

namespace slumber::util {

namespace {
// Mapped-byte accounting. Every update sits next to an mmap / munmap
// system call, so a lock costs nothing measurable.
std::mutex g_mapped_mutex;
std::size_t g_mapped = 0;
std::size_t g_mapped_peak = 0;
}  // namespace

namespace detail {

void* map_pages(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  const std::lock_guard<std::mutex> lock(g_mapped_mutex);
  g_mapped += bytes;
  g_mapped_peak = std::max(g_mapped_peak, g_mapped);
  return p;
}

void unmap_pages(void* p, std::size_t bytes) {
  ::munmap(p, bytes);
  const std::lock_guard<std::mutex> lock(g_mapped_mutex);
  g_mapped -= bytes;
}

void release_pages(void* p, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (begin + page - 1) / page * page;
  const std::uintptr_t last = (begin + bytes) / page * page;
  if (first < last) {
    ::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
  }
}

}  // namespace detail

std::size_t mapped_bytes() {
  const std::lock_guard<std::mutex> lock(g_mapped_mutex);
  return g_mapped;
}

std::size_t mapped_peak_bytes() {
  const std::lock_guard<std::mutex> lock(g_mapped_mutex);
  return g_mapped_peak;
}

void reset_mapped_peak() {
  const std::lock_guard<std::mutex> lock(g_mapped_mutex);
  g_mapped_peak = g_mapped;
}

}  // namespace slumber::util
