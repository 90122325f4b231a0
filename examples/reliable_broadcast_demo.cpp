// Reliable broadcast under an equivocating sender (extension module).
//
//   $ ./reliable_broadcast_demo [seed]
//
// A 7-process system where the designated sender is compromised and tells
// half the system "0" and the other half "1". The echo/ready quorums
// guarantee that correct processes never deliver different values; with a
// correct sender, everyone delivers its value. Exits nonzero if any run
// splits the correct processes' deliveries.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "extensions/reliable_broadcast.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace rcp;

class TwoFacedSender final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (ProcessId q = 0; q < ctx.n(); ++q) {
      const Value v = q < ctx.n() / 2 ? Value::zero : Value::one;
      ctx.send(q, ext::RbMsg{.kind = ext::RbMsg::Kind::initial, .value = v}
                      .encode());
    }
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

/// Runs one broadcast and prints its deliveries; false on a split.
bool run(bool sender_is_byzantine, std::uint64_t seed) {
  const std::uint32_t n = 7;
  const core::ConsensusParams params{n, 2};
  std::vector<std::unique_ptr<sim::Process>> procs;
  std::vector<ext::ReliableBroadcast*> correct;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == 0 && sender_is_byzantine) {
      procs.push_back(std::make_unique<TwoFacedSender>());
      continue;
    }
    auto rb = ext::ReliableBroadcast::make(params, p, /*sender=*/0,
                                           Value::one);
    correct.push_back(rb.get());
    procs.push_back(std::move(rb));
  }
  sim::Simulation s(sim::SimConfig{.n = n, .seed = seed}, std::move(procs));
  if (sender_is_byzantine) {
    s.mark_faulty(0);
  }
  (void)s.run();

  std::cout << (sender_is_byzantine ? "two-faced sender" : "correct sender")
            << ": deliveries =";
  std::size_t delivered = 0;
  bool consistent = true;
  std::optional<Value> seen;
  for (auto* rb : correct) {
    if (const auto v = rb->delivered()) {
      ++delivered;
      std::cout << ' ' << *v;
      if (seen.has_value() && *seen != *v) {
        consistent = false;
      }
      seen = v;
    } else {
      std::cout << " -";
    }
  }
  std::cout << "  (" << delivered << "/" << correct.size() << " delivered, "
            << (consistent ? "consistent" : "SPLIT!") << ")\n";
  return consistent;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t base =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  std::cout << "Reliable broadcast (n = 7, k = 2), sender = process 0\n\n";
  bool consistent = run(/*sender_is_byzantine=*/false, base);
  for (std::uint64_t seed = base; seed < base + 5; ++seed) {
    consistent = run(/*sender_is_byzantine=*/true, seed) && consistent;
  }
  std::cout << "\nWith a two-faced sender the quorum intersection argument "
               "guarantees: either nobody delivers, or everyone delivers "
               "the same value — never a split.\n";
  return consistent ? 0 : 1;
}
