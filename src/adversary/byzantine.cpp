#include "adversary/byzantine.hpp"

#include "common/error.hpp"

namespace rcp::adversary {

using core::EchoProtocolMsg;
using core::MajorityMsg;

namespace {
/// `msg` encoded with value `v`. The two-faced attacks below encode each
/// of their two values once per call and send every destination a copy.
[[nodiscard]] Bytes with_value(EchoProtocolMsg msg, Value v) {
  msg.value = v;
  return msg.encode();
}
}  // namespace

void ByzantineBase::on_start(sim::Context& ctx) {
  started_ = true;
  attack_phase(ctx, 0);
}

void ByzantineBase::on_message(sim::Context& ctx, const sim::Envelope& env) {
  EchoProtocolMsg msg;
  try {
    msg = EchoProtocolMsg::decode(env.payload);
  } catch (const DecodeError&) {
    return;
  }
  if (msg.phase > frontier_) {
    advance_to(ctx, msg.phase);
  }
  observe(ctx, env.sender, msg);
}

void ByzantineBase::advance_to(sim::Context& ctx, Phase target) {
  while (frontier_ < target) {
    ++frontier_;
    attack_phase(ctx, frontier_);
  }
}

void ByzantineBase::observe(sim::Context& /*ctx*/, ProcessId /*sender*/,
                            const EchoProtocolMsg& /*msg*/) {}

// ---- Equivocator -----------------------------------------------------

void EquivocatorByzantine::attack_phase(sim::Context& ctx, Phase t) {
  const std::uint32_t n = params().n;
  const EchoProtocolMsg initial{
      .is_echo = false, .from = ctx.self(), .phase = t};
  const Bytes zero = with_value(initial, Value::zero);
  const Bytes one = with_value(initial, Value::one);
  for (ProcessId q = 0; q < n; ++q) {
    // rcp-lint: allow(threshold) id-space split for equivocation, not a quorum
    ctx.send(q, q < n / 2 ? zero : one);
  }
}

void EquivocatorByzantine::observe(sim::Context& ctx, ProcessId /*sender*/,
                                   const EchoProtocolMsg& msg) {
  if (msg.is_echo) {
    return;
  }
  // Two-faced echoing of other processes' initials: confirm the true value
  // to one half of the system and the opposite value to the other half.
  const std::uint32_t n = params().n;
  const EchoProtocolMsg echo{
      .is_echo = true, .from = msg.from, .phase = msg.phase};
  const Bytes same = with_value(echo, msg.value);
  const Bytes flipped = with_value(echo, other(msg.value));
  for (ProcessId q = 0; q < n; ++q) {
    // rcp-lint: allow(threshold) id-space split for equivocation, not a quorum
    ctx.send(q, q < n / 2 ? same : flipped);
  }
}

// ---- Balancer ---------------------------------------------------------

void BalancerByzantine::attack_phase(sim::Context& ctx, Phase t) {
  // Vote the minority value of what was observed in the previous phase
  // (ties -> 1, to oppose the protocol's tie-to-0 rule).
  const Value v = observed_[Value::one] < observed_[Value::zero]
                      ? Value::one
                      : Value::zero;
  const Value vote = observed_.total() == 0 ? Value::one : v;
  observed_.reset();
  observed_phase_ = t;
  ctx.broadcast(EchoProtocolMsg{
      .is_echo = false, .from = ctx.self(), .value = vote, .phase = t}
                    .encode());
}

void BalancerByzantine::observe(sim::Context& ctx, ProcessId /*sender*/,
                                const EchoProtocolMsg& msg) {
  if (!msg.is_echo && msg.phase == observed_phase_) {
    observed_[msg.value] += 1;
  }
  if (!msg.is_echo) {
    // Honest echo so correct processes keep accepting everyone's state.
    ctx.broadcast(EchoProtocolMsg{.is_echo = true,
                                  .from = msg.from,
                                  .value = msg.value,
                                  .phase = msg.phase}
                      .encode());
  }
}

// ---- Babbler ----------------------------------------------------------

void BabblerByzantine::attack_phase(sim::Context& ctx, Phase t) {
  Rng& rng = ctx.rng();
  const std::uint32_t n = params().n;
  // A random initial for this phase.
  ctx.broadcast(EchoProtocolMsg{.is_echo = false,
                                .from = ctx.self(),
                                .value = rng.bernoulli(0.5) ? Value::one
                                                            : Value::zero,
                                .phase = t}
                    .encode());
  // A few forged echoes about random origins and random values.
  const std::uint64_t forgeries = rng.below(3) + 1;
  for (std::uint64_t i = 0; i < forgeries; ++i) {
    ctx.send(static_cast<ProcessId>(rng.below(n)),
             EchoProtocolMsg{.is_echo = true,
                             .from = static_cast<ProcessId>(rng.below(n)),
                             .value = rng.bernoulli(0.5) ? Value::one
                                                         : Value::zero,
                             .phase = t}
                 .encode());
  }
  // Malformed bytes: random length, random content.
  Bytes junk(rng.below(24) + 1);
  for (auto& b : junk) {
    b = static_cast<std::byte>(rng.below(256));
  }
  ctx.send(static_cast<ProcessId>(rng.below(n)), std::move(junk));
}

// ---- Scripted ----------------------------------------------------------

const ScriptedMove* ScriptedByzantine::move_for(Phase t) const noexcept {
  if (moves_.empty()) {
    return nullptr;
  }
  return &moves_[static_cast<std::size_t>(t % moves_.size())];
}

bool ScriptedByzantine::below_split(const ScriptedMove& move,
                                    ProcessId q) const noexcept {
  // Fraction-of-id-space comparison; split256 = 128 reproduces the
  // equivocator's "first half" split at every n.
  return static_cast<std::uint64_t>(q) * 256 <
         static_cast<std::uint64_t>(move.split256) * params().n;
}

void ScriptedByzantine::attack_phase(sim::Context& ctx, Phase t) {
  const ScriptedMove* move = move_for(t);
  if (move == nullptr) {
    return;  // empty script: silent
  }
  const std::uint32_t n = params().n;
  const EchoProtocolMsg initial{
      .is_echo = false, .from = ctx.self(), .phase = t};
  const Bytes low = with_value(initial, move->low_value);
  const Bytes high = with_value(initial, move->high_value);
  for (ProcessId q = 0; q < n; ++q) {
    ctx.send(q, below_split(*move, q) ? low : high);
  }
}

void ScriptedByzantine::observe(sim::Context& ctx, ProcessId /*sender*/,
                                const EchoProtocolMsg& msg) {
  if (msg.is_echo) {
    return;
  }
  const ScriptedMove* move = move_for(msg.phase);
  if (move == nullptr || move->echo_mode == 0) {
    return;
  }
  const std::uint32_t n = params().n;
  const EchoProtocolMsg echo{
      .is_echo = true, .from = msg.from, .phase = msg.phase};
  const Bytes same = with_value(echo, msg.value);
  const Bytes flipped = with_value(echo, other(msg.value));
  for (ProcessId q = 0; q < n; ++q) {
    ctx.send(q, move->echo_mode == 1 || below_split(*move, q) ? same
                                                               : flipped);
  }
}

// ---- SplitVoice (majority variant attack) ------------------------------

void SplitVoiceByzantine::on_start(sim::Context& ctx) {
  vote(ctx, 0);
}

void SplitVoiceByzantine::on_message(sim::Context& ctx,
                                     const sim::Envelope& env) {
  MajorityMsg msg;
  try {
    msg = MajorityMsg::decode(env.payload);
  } catch (const DecodeError&) {
    return;
  }
  while (frontier_ < msg.phase) {
    ++frontier_;
    vote(ctx, frontier_);
  }
}

void SplitVoiceByzantine::vote(sim::Context& ctx, Phase t) {
  for (ProcessId q = 0; q < params_.n; ++q) {
    const Value v = q < split_ ? Value::zero : Value::one;
    ctx.send(q, MajorityMsg{.phase = t, .value = v}.encode());
  }
}

}  // namespace rcp::adversary
