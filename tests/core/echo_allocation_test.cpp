// The allocation contract of the Byzantine echo path (docs/PERF.md "Quorum
// accounting"): once warm, EchoEngine::handle()/advance() perform zero heap
// allocations, and a running MaliciousConsensus simulation steps
// allocation-free. (Reliable broadcast is covered with the engine it runs
// on, in tests/extensions/rb_engine_allocation_test.cpp.) The covered
// source files are listed under [allocation] in tools/lint_rules.toml, so
// any new allocation fails the build (rcp-lint) *and* this counter.
//
// The binary-wide operator new override counts every allocation; each test
// snapshots before/after deltas. (Same instrument as
// tests/sim/allocation_test.cpp, which lives in a different test binary.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "adversary/scenario.hpp"
#include "common/payload.hpp"
#include "core/echo_engine.hpp"
#include "core/malicious.hpp"
#include "core/messages.hpp"
#include "sim/simulation.hpp"

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

namespace rcp {
namespace {

core::EchoProtocolMsg initial(ProcessId from, Value v, Phase t) {
  return core::EchoProtocolMsg{
      .is_echo = false, .from = from, .value = v, .phase = t};
}

core::EchoProtocolMsg echo(ProcessId origin, Value v, Phase t) {
  return core::EchoProtocolMsg{
      .is_echo = true, .from = origin, .value = v, .phase = t};
}

/// One full phase of traffic: every origin's initial, a full echo matrix
/// (current phase), plus one early echo per origin for the next phase,
/// then the phase advance.
void drive_phase(core::EchoEngine& e, std::uint32_t n, Phase t) {
  for (ProcessId origin = 0; origin < n; ++origin) {
    (void)e.handle(origin, initial(origin, Value::one, t));
    for (ProcessId echoer = 0; echoer < n; ++echoer) {
      (void)e.handle(echoer, echo(origin, Value::one, t));
      (void)e.handle(echoer, echo(origin, Value::zero, t + 1));  // early
    }
  }
  (void)e.advance(t + 1);
}

TEST(EchoAllocation, EchoEngineSteadyStateIsAllocationFree) {
  constexpr std::uint32_t kN = 31;
  core::EchoEngine e(core::ConsensusParams{kN, 10});
  Phase t = 0;
  for (; t < 4; ++t) {
    drive_phase(e, kN, t);  // warm: lists and result buffer reach capacity
  }
  const std::uint64_t before = g_allocations.load();
  for (; t < 40; ++t) {
    drive_phase(e, kN, t);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "warm handle()/advance() must not touch the heap";
}

TEST(EchoAllocation, MaliciousConsensusRunAllocatesOnlyCapacityGrowth) {
  // Whole-protocol check on the trace-digest golden scenario: every
  // delivered message runs the full echo path (decode, EchoEngine::handle,
  // broadcast fan-out), so per-message allocation anywhere in it would cost
  // thousands of allocations over the run. The only heap traffic allowed
  // is container capacity growth toward the run's high-water marks — a
  // small constant — and protocol payloads must never spill out of the
  // inline Bytes capacity.
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::malicious;
  s.params = {7, 2};
  s.inputs = adversary::alternating_inputs(7);
  s.byzantine_ids = {6};
  s.byzantine_kind = adversary::ByzantineKind::equivocator;
  s.seed = 2026;
  s.max_steps = 500000;
  auto sim = adversary::build(s);
  sim->start();
  const std::uint64_t before = g_allocations.load();
  const std::uint64_t payload_before = Payload::heap_allocation_count();
  const auto r = sim->run();
  EXPECT_EQ(r.status, sim::RunStatus::all_decided);
  EXPECT_GT(sim->metrics().messages_delivered, 1000u);
  EXPECT_EQ(Payload::heap_allocation_count() - payload_before, 0u)
      << "protocol messages must stay inline";
#ifdef NDEBUG
  // Measured: 47 capacity-growth allocations for 1348 delivered messages.
  // The bound leaves headroom for stdlib growth-policy differences while
  // still catching any per-message allocation (which would add 1000+).
  EXPECT_LE(g_allocations.load() - before, 200u)
      << "echo path must not allocate per message";
#else
  // Debug builds run the simulator's O(n) incremental-state cross-check
  // each step, which allocates scratch; the contract is enforced in
  // release builds (the tier-1 configuration).
  (void)before;
#endif
}

}  // namespace
}  // namespace rcp
