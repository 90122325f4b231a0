#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

namespace rcp {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(r.next());
  }
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(r.below(1), 0u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(11);
  std::array<int, 7> counts{};
  for (int i = 0; i < 7000; ++i) {
    counts[r.below(7)]++;
  }
  for (const int c : counts) {
    EXPECT_GT(c, 700);  // expected 1000 each; crude uniformity check
    EXPECT_LT(c, 1300);
  }
}

TEST(Rng, BelowSequenceIsPinned) {
  // 64 draws per bound from one fixed seed, recorded before below() moved
  // inline and began skipping the threshold division for r >= bound. Any
  // change to below() must keep every draw: the trace digests and plans
  // depend on it. The bound 2^63 + 1 rejects about half of all raw words,
  // so its row also pins how many next() calls each draw consumes.
  struct Pinned {
    std::uint64_t bound;
    std::array<std::uint64_t, 64> draws;
  };
  const std::array<Pinned, 8> pinned{{
      {1,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {2,
       {0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1,
        0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0,
        0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0}},
      {7,
       {1, 2, 0, 4, 5, 4, 2, 3, 3, 4, 6, 5, 2, 2, 5, 4, 0, 4, 1, 5, 0, 3, 2, 0,
        0, 6, 2, 4, 2, 3, 5, 4, 3, 5, 2, 0, 4, 2, 6, 0, 2, 3, 6, 1, 0, 3, 0, 6,
        1, 4, 0, 6, 2, 6, 0, 2, 4, 4, 2, 1, 0, 2, 0, 4}},
      {16,
       {0, 9, 0, 3, 13, 13, 14, 9, 2, 4, 7, 11, 3, 5, 11, 13, 14, 1, 1, 11, 7,
        3, 15, 11, 6, 14, 10, 5, 2, 6, 14, 1, 7, 9, 14, 1, 6, 9, 11, 3, 13, 1,
        8, 9, 14, 11, 10, 4, 0, 12, 9, 14, 5, 1, 10, 10, 10, 15, 11, 2, 3, 4,
        14, 8}},
      {1000,
       {0, 369, 968, 747, 885, 597, 334, 673, 274, 212, 103, 483, 611, 605, 707,
        149, 526, 481, 585, 443, 551, 307, 903, 491, 686, 438, 914, 485, 506,
        318, 742, 401, 831, 177, 14, 713, 166, 737, 131, 987, 493, 65, 872, 729,
        310, 147, 450, 372, 576, 124, 537, 6, 221, 217, 738, 962, 938, 15, 283,
        626, 299, 444, 918, 584}},
      {(1ULL << 32) + 15,
       {2620476216, 2652244633, 2248746628, 1542635236, 1659484382, 1072063723,
        1890213127, 4278754823, 1843077621, 147193079, 3173223416, 3712646751,
        395896826, 3264775972, 3485803552, 4284182395, 3988333590, 329618446,
        359079633, 3258411058, 3018166770, 3652360349, 1463934585, 3559611020,
        1294389598, 3277010522, 1472297537, 2380890508, 3989689206, 4026732908,
        377657297, 1747631768, 1739801330, 4204813788, 1420152258, 2925372600,
        4094335481, 1488244763, 305296978, 1160593808, 2501355608, 2153483028,
        2673995793, 3264506755, 935407797, 3316333671, 363426557, 842077086,
        3102382517, 1530084442, 521525362, 4180554401, 3469384416, 3429661274,
        3840390329, 3645789936, 738394609, 297011309, 2656950987, 110196303,
        896154184, 3120261618, 1328200175, 1928428429}},
      {(1ULL << 63) + 1,
       {0x2f9728b2e60cad0fULL, 0x48c9668c61e30c18ULL, 0x62ba45ab88d0792cULL,
        0x43f249e4ebdcb0bdULL, 0x3cddcc8cce228786ULL, 0x251d34316eed767aULL,
        0x0f70ae52bedc14ceULL, 0x108ef7753bb3b5adULL, 0x0b143adfb418f424ULL,
        0x0be1606d20027951ULL, 0x2cfdda8e1d802b88ULL, 0x2602c7a0cc5c282aULL,
        0x52001eefce5d5a60ULL, 0x14b7fcdfee89014dULL, 0x77a63f4b4868f0eaULL,
        0x1de2b8dc55f24759ULL, 0x604009f755f1a853ULL, 0x262876af75498d5fULL,
        0x1c1b7e8d1eca9c4dULL, 0x4babace7bdd9bbb4ULL, 0x2e83d997404b3591ULL,
        0x71a7e32f780108ddULL, 0x6c0a89d3478f8e17ULL, 0x530f52946170b0c9ULL,
        0x544c85288031eb5dULL, 0x1c925961c24bc5c0ULL, 0x78bb5d855e30488aULL,
        0x4e62de197b8d5dfdULL, 0x5ff4ee9d95f1808fULL, 0x76ff482d48bcf276ULL,
        0x70de21d969272b1eULL, 0x4a0b55275716f56fULL, 0x196c0a50d2a8fc3cULL,
        0x733289f6cb75faebULL, 0x06006ada993af548ULL, 0x792db708ab99804bULL,
        0x7c26389eee9a6534ULL, 0x08b538c0d40ca7beULL, 0x21abb540bbd209c9ULL,
        0x5dcde613808a7e06ULL, 0x429dd17dfb556598ULL, 0x6de1ac4d84d2a8d5ULL,
        0x61bb0aad03883b84ULL, 0x007c4df19b1df487ULL, 0x4ebda601f2a1cc23ULL,
        0x0e08d3aef1a7a545ULL, 0x58fad3b4de1925afULL, 0x3465cfb4bb28cdd4ULL,
        0x761a3cd2d46a79c1ULL, 0x6845fc89a3b65bd3ULL, 0x35836142d367f87aULL,
        0x5d1ab3d69b2198b5ULL, 0x037b733726a37c4bULL, 0x2687a4d65f7b4754ULL,
        0x4123b4c1fbd25d59ULL, 0x3a1aa6ca258aa944ULL, 0x229836312bc13c7eULL,
        0x52d0011c2eddb57eULL, 0x4ca53de70fa95f34ULL, 0x563be8755616ffbfULL,
        0x63c7c0aca4c0a4deULL, 0x654238e0dd0d15acULL, 0x68f6643fdbcf8003ULL,
        0x564f8c45922c34c2ULL}},
      {~0ULL,
       {0xaf9728b2e60cad10ULL, 0xc8c9668c61e30c19ULL, 0x4460840887b0e2c0ULL,
        0x28db6643c0cdbcb3ULL, 0x605102d707a8e31dULL, 0xe2ba45ab88d0792dULL,
        0xc3f249e4ebdcb0beULL, 0x37e69532458b5bb9ULL, 0x683329e988da9642ULL,
        0x252841853621d3a4ULL, 0xbcddcc8cce228787ULL, 0x6bb5a78b2cef4f1bULL,
        0x34894b4a2ba45123ULL, 0x43b4d5e3ba310f35ULL, 0x47cb6b4a04b06d2bULL,
        0x6d052fa562a939bdULL, 0x72b0922fa611b46eULL, 0x684270b32f8a2e31ULL,
        0x4acc0a94775bbd41ULL, 0xa51d34316eed767bULL, 0x0873345c32a5a347ULL,
        0x48283daf140e3593ULL, 0x8f70ae52bedc14cfULL, 0x68318817ef12538bULL,
        0x18e63359c2a3d386ULL, 0x908ef7753bb3b5aeULL, 0x1757b9f8b5e55fbaULL,
        0x8b143adfb418f425ULL, 0x8be1606d20027952ULL, 0x17e9404856add586ULL,
        0x6fc480c9a306233eULL, 0x1a7aed18f55ea2f1ULL, 0x0281973b8d4b1f67ULL,
        0xacfdda8e1d802b89ULL, 0x578c00a975d9d75eULL, 0x2c02979a42848691ULL,
        0x327ebd76e977b3b6ULL, 0x3210c77547b07fc9ULL, 0xa602c7a0cc5c282bULL,
        0x403904c1088488a3ULL, 0x1f04d79d66604a6dULL, 0xd2001eefce5d5a61ULL,
        0x2f29cc8c62d4ec18ULL, 0x1e3eca0c88424219ULL, 0x94b7fcdfee89014eULL,
        0xf7a63f4b4868f0ebULL, 0x9de2b8dc55f2475aULL, 0xe04009f755f1a854ULL,
        0xa62876af75498d60ULL, 0x70efb074f93e92ccULL, 0x387dfb4c6e7791b9ULL,
        0x9c1b7e8d1eca9c4eULL, 0xcbabace7bdd9bbb5ULL, 0x26bee9dc119c2e11ULL,
        0x2dd479c2945ad6eaULL, 0x12401117eb0f573aULL, 0x58f620bc626eecaaULL,
        0x32f255b10de70d9fULL, 0x605aeb0643b19fcbULL, 0xae83d997404b3592ULL,
        0x36e905886d118d13ULL, 0x454f6222c9a229b4ULL, 0xf1a7e32f780108deULL,
        0xec0a89d3478f8e18ULL}},
  }};
  for (const Pinned& row : pinned) {
    Rng r(20261017);
    for (std::size_t i = 0; i < row.draws.size(); ++i) {
      ASSERT_EQ(r.below(row.bound), row.draws[i])
          << "bound " << row.bound << ", draw " << i;
    }
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng r(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng r(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliEdges) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += r.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, SplitStreamsAreIndependentAndReproducible) {
  Rng parent1(5);
  Rng parent2(5);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(child1.next(), child2.next());
  }
  // Child diverges from a fresh parent continuation.
  Rng parent3(5);
  (void)parent3.next();
  Rng child3 = Rng(5).split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child3.next() == parent3.next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng r(29);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> shuffled = v;
  r.shuffle(std::span<int>(shuffled));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng r(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) {
    v[i] = i;
  }
  std::vector<int> orig = v;
  r.shuffle(std::span<int>(v));
  EXPECT_NE(v, orig);
}

TEST(Rng, SampleWithoutReplacementBasics) {
  Rng r(37);
  const auto picked = r.sample_without_replacement(10, 4);
  EXPECT_EQ(picked.size(), 4u);
  std::set<std::uint32_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 4u);
  for (const auto item : picked) {
    EXPECT_LT(item, 10u);
  }
  // Selection sampling emits items in increasing order.
  EXPECT_TRUE(std::is_sorted(picked.begin(), picked.end()));
}

TEST(Rng, SampleFullUniverse) {
  Rng r(41);
  const auto picked = r.sample_without_replacement(5, 5);
  EXPECT_EQ(picked, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleEmpty) {
  Rng r(43);
  EXPECT_TRUE(r.sample_without_replacement(5, 0).empty());
  EXPECT_TRUE(r.sample_without_replacement(0, 0).empty());
}

TEST(Rng, SampleIsUniform) {
  Rng r(47);
  std::array<int, 5> hits{};
  for (int trial = 0; trial < 5000; ++trial) {
    for (const auto item : r.sample_without_replacement(5, 2)) {
      hits[item]++;
    }
  }
  // Each item appears in a 2-of-5 sample with probability 2/5 = 2000/5000.
  for (const int h : hits) {
    EXPECT_GT(h, 1800);
    EXPECT_LT(h, 2200);
  }
}

TEST(Rng, SplitMix64IsDeterministic) {
  std::uint64_t s1 = 99;
  std::uint64_t s2 = 99;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace rcp
