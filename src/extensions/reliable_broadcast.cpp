#include "extensions/reliable_broadcast.hpp"

#include "common/error.hpp"

namespace rcp::ext {

namespace {
constexpr std::uint8_t kRbTagBase = 20;  // 20 initial, 21 echo, 22 ready

/// An engine value back as a binary Value: decode() admits only 0 and 1.
Value binary(RbValue v) noexcept {
  return v == kRbValueZero ? Value::zero : Value::one;
}
}  // namespace

Bytes RbMsg::encode() const {
  ByteWriter w(2);
  w.u8(static_cast<std::uint8_t>(kRbTagBase + static_cast<std::uint8_t>(kind)))
      .u8(static_cast<std::uint8_t>(value));
  return std::move(w).take();
}

RbMsg RbMsg::decode(const Bytes& payload) {
  ByteReader r(payload);
  const std::uint8_t tag = r.u8();
  if (tag < kRbTagBase || tag > kRbTagBase + 2) {
    throw DecodeError("not a reliable-broadcast message");
  }
  const std::uint8_t raw_value = r.u8();
  r.expect_done();
  if (raw_value > 1) {
    throw DecodeError("value field out of range");
  }
  return RbMsg{.kind = static_cast<RbMsg::Kind>(tag - kRbTagBase),
               .value = value_from_int(raw_value)};
}

std::unique_ptr<ReliableBroadcast> ReliableBroadcast::make(
    core::ConsensusParams params, ProcessId self, ProcessId designated_sender,
    Value value) {
  params.validate(core::FaultModel::malicious);
  RCP_EXPECT(self < params.n && designated_sender < params.n,
             "process ids must lie in [0, n)");
  return std::unique_ptr<ReliableBroadcast>(
      // rcp-lint: allow(hot-alloc) factory constructs the process once
      new ReliableBroadcast(params, self, designated_sender, value));
}

ReliableBroadcast::ReliableBroadcast(core::ConsensusParams params,
                                     ProcessId self,
                                     ProcessId designated_sender, Value value)
    : n_(params.n),
      self_(self),
      sender_(designated_sender),
      value_(value),
      engine_(params) {}

std::optional<Value> ReliableBroadcast::delivered() const {
  const auto v = engine_.delivered(sender_, 0);
  if (!v.has_value()) {
    return std::nullopt;
  }
  return binary(*v);
}

void ReliableBroadcast::on_start(sim::Context& ctx) {
  if (self_ == sender_) {
    ctx.broadcast(RbMsg{.kind = RbMsg::Kind::initial, .value = value_}.encode());
  }
}

void ReliableBroadcast::on_message(sim::Context& ctx,
                                   const sim::Envelope& env) {
  RbMsg msg;
  try {
    msg = RbMsg::decode(env.payload);
  } catch (const DecodeError&) {
    return;
  }
  if (env.sender >= n_) {
    return;  // no transport produces one; keeps the vote gates indexable
  }
  const RbEngine::Outcome out = engine_.handle(
      env.sender, RbxMsg{.kind = msg.kind,
                         .origin = sender_,
                         .tag = 0,
                         .value = to_rb_value(msg.value)});
  for (const RbxMsg& m : out.to_broadcast) {
    sent_ready_ = sent_ready_ || m.kind == RbxMsg::Kind::ready;
    ctx.broadcast(RbMsg{.kind = m.kind, .value = binary(m.value)}.encode());
  }
  if (out.delivered.has_value()) {
    ctx.decide(binary(out.delivered->value));
  }
}

}  // namespace rcp::ext
