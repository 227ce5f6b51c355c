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

}  // namespace
}  // namespace slumber
