// Figure 2: the k-resilient consensus protocol for the malicious case,
// k <= floor((n-1)/3) (Theorem 4).
//
// Each phase a process broadcasts its state in an *initial* message; every
// process echoes every fresh initial it receives; a state is accepted only
// after more than (n+k)/2 echoes (see EchoEngine). A process waits for n-k
// accepted messages per phase, adopts the majority of the accepted values,
// and decides i upon accepting more than (n+k)/2 messages with value i.
//
// As in the paper, processes never exit the loop after deciding — they keep
// participating, which is what lets slower correct processes assemble the
// quorums they need. The simulation driver simply stops once every correct
// process has decided.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/process.hpp"
#include "common/types.hpp"
#include "core/echo_engine.hpp"
#include "core/params.hpp"

namespace rcp::core {

class MaliciousConsensus final : public sim::Process {
 public:
  /// Validating factory: throws unless k <= floor((n-1)/3).
  [[nodiscard]] static std::unique_ptr<MaliciousConsensus> make(
      ConsensusParams params, Value initial_value);

  /// For lower-bound experiments only: skips the resilience-bound check.
  [[nodiscard]] static std::unique_ptr<MaliciousConsensus> make_unchecked(
      ConsensusParams params, Value initial_value);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;
  [[nodiscard]] Phase phase() const noexcept override { return phaseno_; }

  // White-box observers for tests and experiment harnesses.
  [[nodiscard]] Value value() const noexcept { return value_; }
  [[nodiscard]] std::optional<Value> decision() const noexcept {
    return decision_;
  }
  [[nodiscard]] const ValueCounts& accepted_counts() const noexcept {
    return message_count_;
  }
  [[nodiscard]] const EchoEngine& engine() const noexcept { return engine_; }

 private:
  MaliciousConsensus(ConsensusParams params, Value initial_value);

  /// Applies a batch of acceptance events, completing phases as they fill.
  /// The span may alias the engine's advance() buffer; each advance() call
  /// replaces it with the fresh buffer before anything is read again.
  void consume_accepts(sim::Context& ctx,
                       std::span<const EchoEngine::Accept> accepts);

  ConsensusParams params_;
  Value value_;
  Phase phaseno_ = 0;
  ValueCounts message_count_;  ///< accepted messages, current phase
  EchoEngine engine_;
  std::optional<Value> decision_;
};

}  // namespace rcp::core
