// PodVector's allocator (src/util/alloc.h): blocks below
// kMappedArrayBytes come from malloc, larger ones are page mappings of
// their own. Either way a PodVector must behave like std::vector —
// copies, growth across the threshold, shrinking back below it, and
// sharded_fill at every lane count.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "util/alloc.h"
#include "util/thread_pool.h"

namespace slumber {
namespace {

constexpr std::size_t kBig = util::kMappedArrayBytes / sizeof(std::uint32_t);

bool PageAligned(const void* p) {
  return std::bit_cast<std::uintptr_t>(p) % 4096 == 0;
}

TEST(PodVectorTest, LargeBlocksAreWholePageMappings) {
  util::PodVector<std::uint32_t> v;
  v.resize(kBig);
  EXPECT_TRUE(PageAligned(v.data()));
  util::PodVector<std::uint8_t> odd;
  odd.resize(util::kMappedArrayBytes + 1);
  EXPECT_TRUE(PageAligned(odd.data()));
}

TEST(PodVectorTest, KeepsContentsAcrossTheThreshold) {
  util::PodVector<std::uint32_t> v;
  for (std::uint32_t i = 0; i < 3 * kBig; ++i) v.push_back(i * 7u);
  util::PodVector<std::uint32_t> copy = v;
  util::PodVector<std::uint32_t> moved = std::move(v);
  ASSERT_EQ(copy.size(), 3 * kBig);
  ASSERT_EQ(moved.size(), 3 * kBig);
  for (std::uint32_t i = 0; i < 3 * kBig; ++i) {
    ASSERT_EQ(copy[i], i * 7u);
    ASSERT_EQ(moved[i], i * 7u);
  }
  copy.resize(16);
  copy.shrink_to_fit();
  ASSERT_EQ(copy.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) EXPECT_EQ(copy[i], i * 7u);
}

TEST(PodVectorTest, ShardedFillAboveTheThreshold) {
  const std::size_t size = 2 * kBig + 3;
  const auto serial = util::sharded_fill<std::uint32_t>(size, 9u, nullptr);
  ASSERT_EQ(serial.size(), size);
  for (const std::uint32_t x : serial) ASSERT_EQ(x, 9u);
  for (const unsigned lanes : {2u, 3u}) {
    util::ThreadPool pool(lanes);
    EXPECT_EQ(util::sharded_fill<std::uint32_t>(size, 9u, &pool), serial);
  }
}

TEST(PodVectorTest, MappedBytesTrackLargeBlocks) {
  const std::size_t before = util::mapped_bytes();
  util::reset_mapped_peak();
  {
    util::PodVector<std::uint32_t> a;
    a.resize(2 * kBig);
    util::PodVector<std::uint32_t> small;
    small.resize(16);  // malloc-backed: not counted
    EXPECT_EQ(util::mapped_bytes(), before + 2 * util::kMappedArrayBytes);
    {
      util::PodVector<std::uint32_t> b;
      b.resize(kBig);
      EXPECT_EQ(util::mapped_bytes(), before + 3 * util::kMappedArrayBytes);
    }
    EXPECT_EQ(util::mapped_bytes(), before + 2 * util::kMappedArrayBytes);
  }
  EXPECT_EQ(util::mapped_bytes(), before);
  EXPECT_EQ(util::mapped_peak_bytes(), before + 3 * util::kMappedArrayBytes);
  util::reset_mapped_peak();
  EXPECT_EQ(util::mapped_peak_bytes(), before);
}

TEST(PodVectorTest, ReleaseTailKeepsContentsAndCapacity) {
  util::PodVector<std::uint32_t> v;
  v.resize(4 * kBig);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint32_t>(i);
  }
  const std::size_t mapped = util::mapped_bytes();
  v.resize(kBig + 5);
  util::release_tail(v);
  EXPECT_EQ(v.capacity(), 4 * kBig);
  EXPECT_EQ(util::mapped_bytes(), mapped);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i], static_cast<std::uint32_t>(i));
  }
  // Released pages read back as zeros once the size grows into them.
  v.resize(4 * kBig);
  EXPECT_EQ(v[4 * kBig - 1], 0u);
  // Small, malloc-backed vectors are left alone.
  util::PodVector<std::uint32_t> small(8, 3u);
  small.resize(2);
  util::release_tail(small);
  EXPECT_EQ(small[1], 3u);
}

}  // namespace
}  // namespace slumber
