// Agreeing on an arbitrary configuration blob (multivalued consensus).
//
//   $ ./config_agreement [seed]
//
// Seven replicas each propose their own candidate config string; two are
// compromised (one silent, one proposing different configs to different
// replicas). The multivalued layer — reliable proposal broadcast + one
// Figure 2 binary instance per candidate slot — makes every correct
// replica adopt the same bytes.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "extensions/multivalued.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace rcp;

Bytes bytes_of(const std::string& s) {
  Bytes b;
  for (const char c : s) {
    b.push_back(static_cast<std::byte>(c));
  }
  return b;
}

std::string string_of(const Bytes& b) {
  std::string s;
  for (const auto byte : b) {
    s += static_cast<char>(byte);
  }
  return s;
}

class SilentReplica final : public sim::Process {
 public:
  void on_start(sim::Context&) override {}
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

class TwoFacedReplica final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (ProcessId q = 0; q < ctx.n(); ++q) {
      const auto body = q < ctx.n() / 2
                            ? bytes_of("{\"timeout\": 1}")
                            : bytes_of("{\"timeout\": 99}");
      ctx.send(q, ext::ProposalRb::encode_initial(ctx.self(), body));
    }
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 9;
  const std::uint32_t n = 7;
  const core::ConsensusParams params{n, 2};

  std::vector<std::unique_ptr<sim::Process>> procs;
  std::vector<ext::MultiValuedConsensus*> replicas;
  procs.push_back(std::make_unique<SilentReplica>());    // replica 0: down
  procs.push_back(std::make_unique<TwoFacedReplica>());  // replica 1: lying
  for (ProcessId p = 2; p < n; ++p) {
    auto m = ext::MultiValuedConsensus::make(
        params, bytes_of("{\"timeout\": " + std::to_string(10 + p) + "}"));
    replicas.push_back(m.get());
    procs.push_back(std::move(m));
  }

  sim::Simulation s(sim::SimConfig{.n = n, .seed = seed, .max_steps = 8'000'000},
                    std::move(procs));
  s.mark_faulty(0);
  s.mark_faulty(1);
  const auto result = s.run();

  std::cout << "status: "
            << (result.status == sim::RunStatus::all_decided ? "converged"
                                                             : "incomplete")
            << " after " << result.steps << " steps\n\n";
  bool all_same = true;
  std::optional<std::string> first;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const auto d = replicas[i]->decided_proposal();
    const std::string text = d.has_value() ? string_of(*d) : "<undecided>";
    std::cout << "replica " << i + 2 << " adopted: " << text << "\n";
    if (first.has_value() && text != *first) {
      all_same = false;
    }
    first = text;
  }
  std::cout << "\nagreement: " << (all_same ? "holds" : "VIOLATED") << "\n";
  if (const auto origin = replicas[0]->winning_origin()) {
    std::cout << "winning proposer: replica " << *origin << "\n";
  }
  // An unconverged run "agrees" only on <undecided>; fail it too.
  return all_same && result.status == sim::RunStatus::all_decided ? 0 : 1;
}
