// KvStore: the replicated state machine under the service. The properties
// the equivalence proofs lean on: digests are a pure function of the
// per-stream apply sequences, order-sensitive within a stream, and streams
// namespace their keys (no cross-stream interference).
#include "service/kv_store.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

namespace rcp::service {
namespace {

TEST(KvStore, AppliesAndReadsBack) {
  KvStore kv(2);
  kv.apply(0, 0, KvOp{.key = 7, .value = 100});
  kv.apply(1, 0, KvOp{.key = 9, .value = 200});
  kv.apply(0, 1, KvOp{.key = 7, .value = 300});  // overwrite
  EXPECT_EQ(kv.get(0, 7), 300u);
  EXPECT_EQ(kv.get(1, 9), 200u);
  EXPECT_FALSE(kv.get(0, 9).has_value());
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.applied(), 3u);
  EXPECT_EQ(kv.stream_applied(0), 2u);
  EXPECT_EQ(kv.stream_applied(1), 1u);
}

TEST(KvStore, StreamsNamespaceKeys) {
  KvStore kv(2);
  kv.apply(0, 0, KvOp{.key = 5, .value = 1});
  kv.apply(1, 0, KvOp{.key = 5, .value = 2});
  EXPECT_EQ(kv.get(0, 5), 1u);
  EXPECT_EQ(kv.get(1, 5), 2u);
  EXPECT_EQ(kv.size(), 2u);
}

TEST(KvStore, DigestIsOrderSensitiveWithinStream) {
  KvStore a(1);
  a.apply(0, 0, KvOp{.key = 1, .value = 10});
  a.apply(0, 1, KvOp{.key = 2, .value = 20});
  KvStore b(1);
  b.apply(0, 0, KvOp{.key = 2, .value = 20});
  b.apply(0, 1, KvOp{.key = 1, .value = 10});
  // Same final table, different apply order: the chain must differ.
  EXPECT_EQ(a.get(0, 1), b.get(0, 1));
  EXPECT_EQ(a.get(0, 2), b.get(0, 2));
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.stream_chain(0), b.stream_chain(0));
}

TEST(KvStore, DigestMatchesForIdenticalSequences) {
  KvStore a(3);
  KvStore b(3);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const KvOp op{.key = static_cast<std::uint32_t>(seq % 17),
                  .value = static_cast<std::uint32_t>(seq * 31)};
    a.apply(static_cast<std::uint32_t>(seq % 3), seq / 3, op);
    b.apply(static_cast<std::uint32_t>(seq % 3), seq / 3, op);
  }
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(KvStore, GrowsPastInitialTable) {
  KvStore kv(1);
  constexpr std::uint32_t kKeys = 10000;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    kv.apply(0, i, KvOp{.key = i, .value = i ^ 0xabcdu});
  }
  EXPECT_EQ(kv.size(), kKeys);
  for (std::uint32_t i = 0; i < kKeys; i += 997) {
    EXPECT_EQ(kv.get(0, i), i ^ 0xabcdu);
  }
}

TEST(KvStore, KeepLogRetainsPerStreamSequences) {
  KvStore kv(2, /*keep_log=*/true);
  kv.apply(0, 0, KvOp{.key = 1, .value = 2});
  kv.apply(1, 0, KvOp{.key = 3, .value = 4});
  kv.apply(0, 1, KvOp{.key = 5, .value = 6});
  ASSERT_EQ(kv.stream_log(0).size(), 2u);
  EXPECT_EQ(kv.stream_log(0)[0].first, 0u);
  EXPECT_EQ(kv.stream_log(0)[0].second, pack_op(KvOp{.key = 1, .value = 2}));
  EXPECT_EQ(kv.stream_log(0)[1].first, 1u);
  ASSERT_EQ(kv.stream_log(1).size(), 1u);
}

TEST(KvStore, PackOpRoundTrips) {
  const KvOp op{.key = 0xdeadbeefu, .value = 0xcafef00du};
  const KvOp back = unpack_op(pack_op(op));
  EXPECT_EQ(back.key, op.key);
  EXPECT_EQ(back.value, op.value);
}

/// Everything a KvStore shows: equal here means the stores cannot be told
/// apart. `keys` lists every (stream, key) ever written.
void expect_same_store(
    const KvStore& a, const KvStore& b,
    const std::set<std::pair<std::uint32_t, std::uint32_t>>& keys) {
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.applied(), b.applied());
  for (std::uint32_t s = 0; s < a.streams(); ++s) {
    EXPECT_EQ(a.stream_chain(s), b.stream_chain(s)) << "stream " << s;
    EXPECT_EQ(a.stream_applied(s), b.stream_applied(s)) << "stream " << s;
    EXPECT_EQ(a.stream_log(s), b.stream_log(s)) << "stream " << s;
  }
  for (const auto& [stream, key] : keys) {
    EXPECT_EQ(a.get(stream, key), b.get(stream, key))
        << "stream " << stream << " key " << key;
  }
}

TEST(KvStore, ApplyAllMatchesSequentialApply) {
  constexpr std::uint32_t kStreams = 4;
  KvStore bulk(kStreams, /*keep_log=*/true);
  KvStore one_by_one(kStreams, /*keep_log=*/true);
  std::set<std::pair<std::uint32_t, std::uint32_t>> keys;
  std::vector<std::uint64_t> next_seq(kStreams, 0);
  std::uint64_t draw = 0;

  // Span sizes: empty first; then spans that carry the table from 64
  // slots past its 70% growth limit several times each (45 -> 90 -> 179
  // -> ... keys); then small spans.
  for (const std::size_t span : {0, 1, 40, 300, 1000, 3000, 7, 0, 64}) {
    std::vector<KvStore::Write> writes;
    for (std::size_t i = 0; i < span; ++i) {
      const std::uint64_t r = detail::mix64(++draw);
      const auto stream = static_cast<std::uint32_t>(r % kStreams);
      // Every third write reuses one of 16 keys of its stream, so one
      // span holds repeated keys within one stream; the rest are fresh.
      const auto key = static_cast<std::uint32_t>(
          r % 3 == 0 ? (r >> 8) % 16 : 16 + draw);
      writes.push_back(KvStore::Write{
          .stream = stream,
          .seq = next_seq[stream]++,
          .op = KvOp{.key = key, .value = static_cast<std::uint32_t>(r >> 32)}});
      keys.emplace(stream, key);
    }
    bulk.apply_all(writes);
    for (const KvStore::Write& w : writes) {
      one_by_one.apply(w.stream, w.seq, w.op);
    }
    expect_same_store(bulk, one_by_one, keys);
  }
  EXPECT_GT(bulk.size(), 3000u);
  EXPECT_LT(bulk.size(), bulk.applied());  // some writes overwrote
}

}  // namespace
}  // namespace rcp::service
