// A stand-alone sim::Context for message-level protocol unit tests: drive
// a protocol object directly with crafted envelopes and inspect exactly
// what it sends and decides, without a Simulation in the loop.
#pragma once

#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/process.hpp"
#include "common/rng.hpp"

namespace rcp::test {

class FakeContext final : public sim::Context {
 public:
  FakeContext(ProcessId self, std::uint32_t n, std::uint64_t rng_seed = 7)
      : self_(self), n_(n), rng_(rng_seed) {}

  struct Sent {
    ProcessId to;
    Bytes payload;
  };

  [[nodiscard]] ProcessId self() const noexcept override { return self_; }
  [[nodiscard]] std::uint32_t n() const noexcept override { return n_; }
  [[nodiscard]] std::uint64_t step() const noexcept override { return step_; }

  void send(ProcessId to, Bytes payload) override {
    sent.push_back(Sent{to, std::move(payload)});
  }

  void broadcast(const Bytes& payload) override {
    for (ProcessId q = 0; q < n_; ++q) {
      sent.push_back(Sent{q, payload});
    }
  }

  void decide(Value v) override {
    ++decide_calls;
    if (decision.has_value()) {
      RCP_INVARIANT(*decision == v, "conflicting decision in FakeContext");
      return;
    }
    decision = v;
  }

  [[nodiscard]] Rng& rng() noexcept override { return rng_; }

  /// Delivers `payload` from `sender` to the process under test.
  static sim::Envelope envelope(ProcessId sender, ProcessId receiver,
                                Bytes payload) {
    return sim::Envelope{.sender = sender,
                         .receiver = receiver,
                         .payload = std::move(payload),
                         .seq = 0};
  }

  /// Removes and returns everything sent so far.
  [[nodiscard]] std::vector<Sent> take_sent() {
    std::vector<Sent> out;
    out.swap(sent);
    return out;
  }

  /// Number of queued sends addressed to `to`.
  [[nodiscard]] std::size_t sent_to(ProcessId to) const {
    std::size_t count = 0;
    for (const auto& s : sent) {
      if (s.to == to) {
        ++count;
      }
    }
    return count;
  }

  std::vector<Sent> sent;
  std::optional<Value> decision;
  int decide_calls = 0;
  std::uint64_t step_ = 0;

 private:
  ProcessId self_;
  std::uint32_t n_;
  Rng rng_;
};

}  // namespace rcp::test
