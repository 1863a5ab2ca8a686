// Unit tests for the utility layer: strong ids, bitsets, RNG, CRC,
// stopwatch.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>

#include "util/bitset.hpp"
#include "util/crc32.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace icecube {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  ActionId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, ConstructedIsValid) {
  ActionId id(3);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 3u);
  EXPECT_EQ(id.index(), 3u);
}

TEST(StrongId, ComparesByValue) {
  EXPECT_EQ(ActionId(2), ActionId(2));
  EXPECT_NE(ActionId(2), ActionId(3));
  EXPECT_LT(ActionId(2), ActionId(3));
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<ActionId, ObjectId>);
  static_assert(!std::is_same_v<ActionId, LogId>);
  SUCCEED();
}

TEST(StrongId, Hashable) {
  std::unordered_set<ActionId> set;
  set.insert(ActionId(1));
  set.insert(ActionId(1));
  set.insert(ActionId(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Bitset, StartsEmpty) {
  Bitset bs(100);
  EXPECT_EQ(bs.count(), 0u);
  EXPECT_TRUE(bs.none());
  EXPECT_FALSE(bs.any());
}

TEST(Bitset, SetResetTest) {
  Bitset bs(130);  // crosses word boundaries
  bs.set(0);
  bs.set(63);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(63));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_FALSE(bs.test(1));
  EXPECT_EQ(bs.count(), 4u);
  bs.reset(63);
  EXPECT_FALSE(bs.test(63));
  EXPECT_EQ(bs.count(), 3u);
}

TEST(Bitset, SetOperations) {
  Bitset a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);

  Bitset u = a | b;
  EXPECT_TRUE(u.test(1));
  EXPECT_TRUE(u.test(2));
  EXPECT_TRUE(u.test(65));

  Bitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(65));

  Bitset d = a - b;
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
}

TEST(Bitset, DisjointAndSubset) {
  Bitset a(64), b(64), c(64);
  a.set(3);
  b.set(4);
  c.set(3);
  c.set(4);
  EXPECT_TRUE(a.disjoint(b));
  EXPECT_FALSE(a.disjoint(c));
  EXPECT_TRUE(a.subset_of(c));
  EXPECT_FALSE(c.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
}

TEST(Bitset, ForEachVisitsAscending) {
  Bitset bs(200);
  const std::set<std::size_t> expected{0, 5, 64, 127, 128, 199};
  for (std::size_t i : expected) bs.set(i);
  std::vector<std::size_t> seen;
  bs.for_each([&seen](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<std::size_t>(expected.begin(), expected.end()));
  EXPECT_EQ(bs.to_vector(), seen);
}

TEST(Bitset, ClearEmptiesAll) {
  Bitset bs(128);
  bs.set(0);
  bs.set(127);
  bs.clear();
  EXPECT_TRUE(bs.none());
}

TEST(Bitset, EqualityIsStructural) {
  Bitset a(10), b(10);
  EXPECT_EQ(a, b);
  a.set(9);
  EXPECT_NE(a, b);
  b.set(9);
  EXPECT_EQ(a, b);
}

// The scheduler's non-allocating helpers, at sizes on and around a word
// boundary.
class BitsetHelpers : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Bits that sit on word edges, plus a seeded sprinkle.
  static Bitset edge_and_random(std::size_t n, std::uint64_t seed) {
    Bitset bs(n);
    for (std::size_t i : {std::size_t{0}, std::size_t{62}, std::size_t{63},
                          std::size_t{64}, n - 1}) {
      if (i < n) bs.set(i);
    }
    Rng rng(seed);
    for (std::size_t k = 0; k < n / 4; ++k) bs.set(rng.below(n));
    return bs;
  }
};

TEST_P(BitsetHelpers, IntersectsExceptSkipsOnlyTheSelfBit) {
  const std::size_t n = GetParam();
  for (std::size_t p : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                        n - 1}) {
    if (p >= n) continue;
    Bitset a(n), b(n);
    a.set(p);
    b.set(p);
    EXPECT_FALSE(a.intersects_except(b, p)) << "n=" << n << " p=" << p;
    EXPECT_TRUE(a.intersects_except(b, (p + 1) % n)) << "n=" << n;
    const std::size_t q = (p + 64) % n;  // the same bit in another word
    if (q == p) continue;
    a.set(q);
    b.set(q);
    EXPECT_TRUE(a.intersects_except(b, p)) << "n=" << n << " q=" << q;
  }
  // Against the allocating formulation on seeded sets.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Bitset a = edge_and_random(n, seed);
    const Bitset b = edge_and_random(n, seed + 100);
    for (std::size_t skip = 0; skip < n; ++skip) {
      Bitset common = a & b;
      common.reset(skip);
      ASSERT_EQ(a.intersects_except(b, skip), common.any())
          << "n=" << n << " seed=" << seed << " skip=" << skip;
    }
  }
}

TEST_P(BitsetHelpers, NthSetMatchesAscendingOrder) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Bitset bs = edge_and_random(n, seed);
    const std::vector<std::size_t> members = bs.to_vector();
    for (std::size_t k = 0; k < members.size(); ++k) {
      ASSERT_EQ(bs.nth_set(k), members[k]) << "n=" << n << " k=" << k;
    }
  }
  Bitset last(n);
  last.set(n - 1);
  EXPECT_EQ(last.nth_set(0), n - 1);
}

INSTANTIATE_TEST_SUITE_P(
    WordBoundaries, BitsetHelpers,
    ::testing::Values<std::size_t>(63, 64, 65, 128),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "n" + std::to_string(info.param);
    });

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Crc32, MatchesIeeeCheckValue) {
  // The standard check value for CRC-32/ISO-HDLC.
  EXPECT_EQ(Crc32::of("123456789"), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(Crc32::of(""), 0u); }

TEST(Crc32, IncrementalEqualsOneShot) {
  const std::string text = "icecube-log 2 bank\nincrement | 0 | 100 |\n";
  Crc32 crc;
  for (std::size_t i = 0; i < text.size(); i += 7) {
    crc.update(std::string_view(text).substr(i, 7));
  }
  EXPECT_EQ(crc.value(), Crc32::of(text));
}

TEST(Crc32, SensitiveToSingleBitFlips) {
  std::string text = "the quick brown fox";
  const std::uint32_t clean = Crc32::of(text);
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = text;
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << bit));
      EXPECT_NE(Crc32::of(damaged), clean) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32, UsableAtCompileTime) {
  static_assert(Crc32::of("123456789") == 0xCBF43926u);
  static_assert(Crc32::of("") == 0u);
  SUCCEED();
}

TEST(Stopwatch, MeasuresNonNegativeElapsed) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  const double first = sw.seconds();
  EXPECT_GE(sw.seconds(), first);
  sw.restart();
  EXPECT_GE(sw.seconds(), 0.0);
}

}  // namespace
}  // namespace icecube
