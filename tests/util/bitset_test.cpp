#include "util/bitset.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace hedra {
namespace {

TEST(BitsetTest, StartsEmpty) {
  const DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
}

TEST(BitsetTest, SetResetTest) {
  DynamicBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(BitsetTest, OutOfRangeThrows) {
  DynamicBitset b(10);
  EXPECT_THROW(b.set(10), Error);
  EXPECT_THROW((void)b.test(10), Error);
  EXPECT_THROW(b.reset(10), Error);
}

TEST(BitsetTest, UnionAndIntersection) {
  DynamicBitset a(10);
  DynamicBitset b(10);
  a.set(1);
  a.set(3);
  b.set(3);
  b.set(5);
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.to_indices(), (std::vector<std::size_t>{1, 3, 5}));
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.to_indices(), (std::vector<std::size_t>{3}));
}

TEST(BitsetTest, SizeMismatchThrows) {
  DynamicBitset a(10);
  DynamicBitset b(11);
  EXPECT_THROW(a |= b, Error);
  EXPECT_THROW(a &= b, Error);
}

TEST(BitsetTest, ToIndicesAscendingAcrossWords) {
  DynamicBitset b(130);
  b.set(129);
  b.set(2);
  b.set(64);
  EXPECT_EQ(b.to_indices(), (std::vector<std::size_t>{2, 64, 129}));
}

TEST(BitsetTest, Equality) {
  DynamicBitset a(20);
  DynamicBitset b(20);
  EXPECT_EQ(a, b);
  a.set(7);
  EXPECT_NE(a, b);
  b.set(7);
  EXPECT_EQ(a, b);
}

TEST(BitsetTest, EmptyBitset) {
  const DynamicBitset b(0);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_TRUE(b.to_indices().empty());
}

}  // namespace
}  // namespace hedra
