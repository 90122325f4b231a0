// Allocation contract of the multiplexed engine (docs/SERVICE.md,
// docs/PERF.md): once the slot pool is warm, RbEngine::handle() and
// retire_through() are allocation-free — the KV service's per-message hot
// path — and so is reading a batch through RbxBatch::View, which needs no
// buffer at all.
// The same holds for the adapters that run on the engine: a single-shot
// ReliableBroadcast message, and ProposalRb traffic the engine would not
// count (origins outside the system, forged initials, repeated votes),
// which must never store a proposal body. The engine and single-shot
// adapter sources are listed under [allocation] in tools/lint_rules.toml,
// so a new allocation there fails the build (rcp-lint) *and* this counter.
//
// The binary-wide operator new override counts every allocation (same
// instrument as tests/core/echo_allocation_test.cpp, different binary).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "extensions/multivalued.hpp"
#include "extensions/rb_engine.hpp"
#include "extensions/reliable_broadcast.hpp"
#include "support/fake_context.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rcp::ext {
namespace {

constexpr core::ConsensusParams kParams{7, 2};

/// One full instance lifecycle: initial, echo quorum, ready quorum,
/// delivery, retire. The steady-state traffic of one KV write.
void drive_instance(RbEngine& e, ProcessId origin, std::uint64_t tag) {
  (void)e.handle(origin, RbxMsg{.kind = RbxMsg::Kind::initial,
                                .origin = origin,
                                .tag = tag,
                                .value = tag & 0xff});
  for (ProcessId p = 0; p < kParams.n; ++p) {
    (void)e.handle(p, RbxMsg{.kind = RbxMsg::Kind::echo,
                             .origin = origin,
                             .tag = tag,
                             .value = tag & 0xff});
  }
  bool delivered = false;
  for (ProcessId p = 0; p < kParams.n; ++p) {
    const auto out = e.handle(p, RbxMsg{.kind = RbxMsg::Kind::ready,
                                        .origin = origin,
                                        .tag = tag,
                                        .value = tag & 0xff});
    delivered = delivered || out.delivered.has_value();
  }
  ASSERT_TRUE(delivered);
  e.retire_through(origin, tag);
}

TEST(RbEngineAllocation, SteadyStateDispatchIsAllocationFree) {
  RbEngine e(kParams, /*capacity_hint=*/64, kRbValueAny);
  // Warm: every origin cycles a few instances; the pool never needs to
  // grow past the hint because retire keeps live_count bounded.
  std::uint64_t tag = 0;
  for (; tag < 16; ++tag) {
    for (ProcessId origin = 0; origin < kParams.n; ++origin) {
      drive_instance(e, origin, tag);
    }
  }
  const std::uint64_t before = g_allocations.load();
  for (; tag < 200; ++tag) {
    for (ProcessId origin = 0; origin < kParams.n; ++origin) {
      drive_instance(e, origin, tag);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "warm handle()/retire_through() must not touch the heap";
  EXPECT_EQ(e.stats().grows, 0u);
}

TEST(RbEngineAllocation, BatchViewIsAllocationFree) {
  std::vector<RbxMsg> msgs;
  for (std::uint32_t i = 0; i < 32; ++i) {
    msgs.push_back(RbxMsg{.kind = RbxMsg::Kind::echo,
                          .origin = i % kParams.n,
                          .tag = i,
                          .value = i});
  }
  const Bytes frame = RbxBatch::encode(msgs);
  std::uint64_t tags = 0;
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 100; ++round) {
    const RbxBatch::View batch(frame, kRbValueAny);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      tags += batch[i].tag;
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "validating and reading a batch must not touch the heap";
  EXPECT_EQ(tags, 100u * (31u * 32u / 2));
}

TEST(RbEngineAllocation, ReliableBroadcastMessageHandlingIsAllocationFree) {
  constexpr std::uint32_t kN = 31;
  constexpr std::uint32_t kK = 3;
  test::FakeContext ctx(/*self=*/1, kN);
  auto rb = ReliableBroadcast::make({kN, kK}, 1, /*sender=*/0);
  // The test harness's outbox is the only allocating container in the loop;
  // give it its capacity up front so the measured path is pure protocol.
  ctx.sent.reserve(8 * kN);
  const std::uint64_t before = g_allocations.load();
  // Full happy path: initial -> echo quorum -> ready amplification ->
  // delivery. Every vote lands in the engine's preallocated slot; every
  // payload fits the inline Bytes capacity.
  rb->on_message(ctx, test::FakeContext::envelope(
                          0, 1,
                          RbMsg{.kind = RbMsg::Kind::initial,
                                .value = Value::one}
                              .encode()));
  for (ProcessId p = 0; p < kN; ++p) {
    rb->on_message(ctx, test::FakeContext::envelope(
                            p, 1,
                            RbMsg{.kind = RbMsg::Kind::echo,
                                  .value = Value::one}
                                .encode()));
    rb->on_message(ctx, test::FakeContext::envelope(
                            p, 1,
                            RbMsg{.kind = RbMsg::Kind::ready,
                                  .value = Value::one}
                                .encode()));
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "reliable-broadcast message handling must not touch the heap";
  EXPECT_EQ(rb->delivered(), Value::one);
}

/// Proposal bodies longer than the inline Bytes capacity, so any copy of
/// one would show up on the counter.
Bytes proposal_body(const std::string& text) {
  Bytes b;
  for (const char c : text + std::string(48, '.')) {
    b.push_back(static_cast<std::byte>(c));
  }
  return b;
}

/// A ProposalRb message of any kind (50 initial, 51 echo, 52 ready): the
/// initial encoding with its tag byte rewritten.
Bytes proposal_msg(RbxMsg::Kind kind, ProcessId origin, const Bytes& body) {
  Bytes msg = ProposalRb::encode_initial(origin, body);
  msg[0] = static_cast<std::byte>(50 + static_cast<int>(kind));
  return msg;
}

/// Drives a correct origin's proposal to delivery at `rb`.
void deliver_proposal(ProposalRb& rb, ProcessId origin, const Bytes& body,
                      std::uint32_t n) {
  (void)rb.handle(origin, proposal_msg(RbxMsg::Kind::initial, origin, body));
  for (ProcessId p = 0; p < n; ++p) {
    (void)rb.handle(p, proposal_msg(RbxMsg::Kind::echo, origin, body));
  }
  for (ProcessId p = 0; p < n; ++p) {
    (void)rb.handle(p, proposal_msg(RbxMsg::Kind::ready, origin, body));
  }
}

TEST(RbEngineAllocation, ProposalRbHostileOriginsAllocateNothing) {
  constexpr std::uint32_t kN = 7;
  ProposalRb rb({kN, 2});
  const Bytes real = proposal_body("real");
  deliver_proposal(rb, 3, real, kN);  // warm: one live, delivered origin
  ASSERT_EQ(rb.delivered(3), real);

  // Hostile traffic, encoded up front: echoes and readies naming origins
  // outside the system, initials forged by a sender for someone else's
  // origin, and repeat votes for the delivered origin.
  std::vector<std::pair<ProcessId, Bytes>> hostile;
  for (const ProcessId origin : {kN, kN + 1, 1000u, 0xffffffffu}) {
    hostile.emplace_back(1, proposal_msg(RbxMsg::Kind::echo, origin,
                                         proposal_body("ghost-echo")));
    hostile.emplace_back(2, proposal_msg(RbxMsg::Kind::ready, origin,
                                         proposal_body("ghost-ready")));
    hostile.emplace_back(origin % kN, proposal_msg(RbxMsg::Kind::initial,
                                                   origin,
                                                   proposal_body("ghost")));
  }
  for (ProcessId origin = 0; origin < kN; ++origin) {
    hostile.emplace_back((origin + 1) % kN,
                         proposal_msg(RbxMsg::Kind::initial, origin,
                                      proposal_body("forged")));
  }
  hostile.emplace_back(4, proposal_msg(RbxMsg::Kind::echo, 3,
                                       proposal_body("second-echo")));
  hostile.emplace_back(5, proposal_msg(RbxMsg::Kind::ready, 3,
                                       proposal_body("second-ready")));

  const std::uint64_t before = g_allocations.load();
  std::size_t outputs = 0;
  for (std::size_t i = 0; i < 10'000; ++i) {
    const auto& [sender, payload] = hostile[i % hostile.size()];
    const ProposalRb::Outcome out = rb.handle(sender, payload);
    outputs += out.to_broadcast.size() + (out.delivered.has_value() ? 1 : 0);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "traffic the engine does not count must not store anything";
  EXPECT_EQ(outputs, 0u);
  for (ProcessId origin = 0; origin < kN; ++origin) {
    EXPECT_EQ(rb.interned_count(origin), origin == 3 ? 1u : 0u);
  }
  EXPECT_EQ(rb.interned_count(kN), 0u);
  EXPECT_EQ(rb.delivered(3), real);
}

TEST(RbEngineAllocation, ProposalRbBodySprayStaysBoundedAndDelivers) {
  constexpr std::uint32_t kN = 7;
  constexpr std::uint32_t kK = 2;
  constexpr ProcessId kOrigin = 0;
  ProposalRb rb({kN, kK});
  // The k Byzantine senders 5 and 6 each spray 1000 distinct echo and
  // ready bodies for the correct origin 0, before and while it broadcasts.
  std::vector<std::pair<ProcessId, Bytes>> spray;
  for (int i = 0; i < 1000; ++i) {
    for (const ProcessId byz : {5u, 6u}) {
      const std::string tag = std::to_string(byz) + "-" + std::to_string(i);
      spray.emplace_back(byz, proposal_msg(RbxMsg::Kind::echo, kOrigin,
                                           proposal_body("junk-echo-" + tag)));
      spray.emplace_back(byz, proposal_msg(RbxMsg::Kind::ready, kOrigin,
                                           proposal_body("junk-ready-" + tag)));
    }
  }
  // First votes: each Byzantine sender's first echo and first ready are
  // counted (and their bodies stored), exactly like a correct sender's.
  for (std::size_t i = 0; i < 4; ++i) {
    (void)rb.handle(spray[i].first, spray[i].second);
  }
  EXPECT_EQ(rb.interned_count(kOrigin), 4u);
  const std::uint64_t before = g_allocations.load();
  std::size_t outputs = 0;
  for (std::size_t i = 4; i < spray.size(); ++i) {
    outputs += rb.handle(spray[i].first, spray[i].second).to_broadcast.size();
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "repeat votes must not store bodies";
  EXPECT_EQ(outputs, 0u);
  EXPECT_EQ(rb.interned_count(kOrigin), 4u);

  const Bytes real = proposal_body("real-proposal");
  deliver_proposal(rb, kOrigin, real, /*n=*/5);  // the five correct senders
  EXPECT_EQ(rb.delivered(kOrigin), real);
  EXPECT_EQ(rb.delivered_count(), 1u);
  EXPECT_EQ(rb.interned_count(kOrigin), 5u);
  EXPECT_LE(rb.interned_count(kOrigin), 2u * kN + 1);
}

}  // namespace
}  // namespace rcp::ext
