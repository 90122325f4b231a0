#include "core/malicious.hpp"

#include "common/error.hpp"
#include "core/messages.hpp"

namespace rcp::core {

std::unique_ptr<MaliciousConsensus> MaliciousConsensus::make(
    ConsensusParams params, Value initial_value) {
  params.validate(FaultModel::malicious);
  return make_unchecked(params, initial_value);
}

std::unique_ptr<MaliciousConsensus> MaliciousConsensus::make_unchecked(
    ConsensusParams params, Value initial_value) {
  RCP_EXPECT(params.n >= 1 && params.k < params.n,
             "need at least one correct process");
  return std::unique_ptr<MaliciousConsensus>(
      // rcp-lint: allow(hot-alloc) factory constructs the process once
      new MaliciousConsensus(params, initial_value));
}

MaliciousConsensus::MaliciousConsensus(ConsensusParams params,
                                       Value initial_value)
    : params_(params), value_(initial_value), engine_(params) {}

void MaliciousConsensus::on_start(sim::Context& ctx) {
  ctx.broadcast(EchoProtocolMsg{
      .is_echo = false, .from = ctx.self(), .value = value_, .phase = phaseno_}
                    .encode());
}

void MaliciousConsensus::on_message(sim::Context& ctx,
                                    const sim::Envelope& env) {
  EchoProtocolMsg msg;
  try {
    msg = EchoProtocolMsg::decode(env.payload);
  } catch (const DecodeError&) {
    return;  // Byzantine garbage; drop
  }
  EchoEngine::Outcome outcome = engine_.handle(env.sender, msg);
  if (outcome.echo_to_broadcast.has_value()) {
    ctx.broadcast(outcome.echo_to_broadcast->encode());
  }
  if (outcome.accepted.has_value()) {
    consume_accepts(ctx, std::span<const EchoEngine::Accept>(
                             &*outcome.accepted, 1));
  }
}

void MaliciousConsensus::consume_accepts(
    sim::Context& ctx, std::span<const EchoEngine::Accept> accepts) {
  std::size_t idx = 0;
  for (;;) {
    // Count acceptance events until the phase quorum of n-k is reached;
    // events beyond the quorum belong to an already-completed phase and are
    // dropped, exactly as the pseudocode's stale-echo case drops them.
    while (idx < accepts.size() &&
           message_count_.total() < params_.wait_quorum()) {
      message_count_[accepts[idx].value] += 1;
      ++idx;
    }
    if (message_count_.total() < params_.wait_quorum()) {
      return;  // phase still open; wait for more echoes
    }

    // End of phase: adopt the majority of accepted values, then decide if
    // one value was accepted from more than (n+k)/2 processes.
    value_ = message_count_.majority();
    for (const Value i : kBothValues) {
      if (params_.accepted_count_decides(message_count_[i]) &&
          !decision_.has_value()) {
        decision_ = i;
        ctx.decide(i);
      }
    }
    phaseno_ += 1;
    message_count_.reset();
    // Quorums that early echoes completed are acceptances for the
    // new phase — possibly enough to complete it, hence the outer loop.
    accepts = engine_.advance(phaseno_);
    idx = 0;
    ctx.broadcast(EchoProtocolMsg{.is_echo = false,
                                  .from = ctx.self(),
                                  .value = value_,
                                  .phase = phaseno_}
                      .encode());
  }
}

}  // namespace rcp::core
