#include "extensions/multivalued.hpp"

#include "common/error.hpp"

namespace rcp::ext {

namespace {

constexpr std::uint8_t kPropTagBase = 50;  // 50 initial, 51 echo, 52 ready
constexpr std::uint8_t kSlotWrapped = 53;
constexpr std::size_t kMaxProposalBytes = 64 * 1024;

/// A decoded proposal message; `body` views the payload it came from.
struct PropMsg {
  RbxMsg::Kind kind = RbxMsg::Kind::initial;
  ProcessId origin = 0;
  std::span<const std::byte> body;
};

Bytes encode_prop(RbxMsg::Kind kind, ProcessId origin,
                  std::span<const std::byte> body) {
  ByteWriter w(9 + body.size());
  w.u8(static_cast<std::uint8_t>(kPropTagBase +
                                 static_cast<std::uint8_t>(kind)))
      .u32(origin)
      .u32(static_cast<std::uint32_t>(body.size()));
  Bytes out = std::move(w).take();
  out.append(body.data(), body.size());
  return out;
}

PropMsg decode_prop(const Bytes& payload) {
  if (!ProposalRb::is_proposal_msg(payload)) {
    throw DecodeError("not a proposal-broadcast message");
  }
  ByteReader r(payload);
  PropMsg msg;
  msg.kind = static_cast<RbxMsg::Kind>(r.u8() - kPropTagBase);
  msg.origin = r.u32();
  const std::uint32_t len = r.u32();
  if (len > kMaxProposalBytes || len != r.remaining()) {
    throw DecodeError("bad proposal length");
  }
  msg.body = payload.span().last(len);
  return msg;
}

Bytes wrap_slot(std::uint64_t slot, const Bytes& inner) {
  ByteWriter w(9 + inner.size());
  w.u8(kSlotWrapped).u64(slot);
  Bytes out = std::move(w).take();
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

}  // namespace

// ---- ProposalRb ------------------------------------------------------------

ProposalRb::ProposalRb(core::ConsensusParams params)
    : n_(params.n), engine_(params, params.n) {}

Bytes ProposalRb::encode_initial(ProcessId self, const Bytes& proposal) {
  return encode_prop(RbxMsg::Kind::initial, self, proposal.span());
}

bool ProposalRb::is_proposal_msg(const Bytes& payload) {
  if (payload.empty()) {
    return false;
  }
  const auto tag = static_cast<std::uint8_t>(payload.front());
  return tag >= kPropTagBase && tag <= kPropTagBase + 2;
}

ProposalRb::Outcome ProposalRb::handle(ProcessId sender, const Bytes& payload) {
  Outcome out;
  const PropMsg msg = decode_prop(payload);
  if (sender >= n_) {
    return out;  // not a process: the transport never stamps one
  }
  // The engine interns a body only for a vote it counts, so an origin
  // outside the system, a forged or repeated initial and a second
  // echo/ready store nothing.
  const RbEngine::Outcome step = engine_.handle(
      sender, RbxBodyMsg{.kind = msg.kind,
                         .origin = msg.origin,
                         .tag = 0,
                         .body = msg.body});
  for (const RbxMsg& m : step.to_broadcast) {
    out.to_broadcast.push_back(encode_prop(m.kind, m.origin, step.body));
  }
  if (step.delivered.has_value()) {
    ++delivered_count_;
    out.delivered = std::make_pair(msg.origin, Bytes(step.body));
  }
  return out;
}

std::optional<Bytes> ProposalRb::delivered(ProcessId origin) const {
  const auto body = engine_.delivered_body(origin, 0);
  if (!body.has_value()) {
    return std::nullopt;
  }
  return Bytes(*body);
}

// ---- MultiValuedConsensus ---------------------------------------------------

/// Context wrapper handed to a slot's binary instance: sends are wrapped
/// with the slot id, and the instance's binary decide() is swallowed (the
/// binary outcome is read back through MaliciousConsensus::decision(); only
/// the multivalued layer decides at the simulator level).
class MultiValuedConsensus::SlotContext final : public sim::Context {
 public:
  SlotContext(sim::Context& outer, std::uint64_t slot) noexcept
      : outer_(outer), slot_(slot) {}

  [[nodiscard]] ProcessId self() const noexcept override {
    return outer_.self();
  }
  [[nodiscard]] std::uint32_t n() const noexcept override {
    return outer_.n();
  }
  [[nodiscard]] std::uint64_t step() const noexcept override {
    return outer_.step();
  }

  void send(ProcessId to, Bytes payload) override {
    outer_.send(to, wrap_slot(slot_, payload));
  }

  void broadcast(const Bytes& payload) override {
    const Bytes wrapped = wrap_slot(slot_, payload);
    for (ProcessId q = 0; q < outer_.n(); ++q) {
      outer_.send(q, wrapped);
    }
  }

  void decide(Value /*v*/) override {
    // Intentionally swallowed; see class comment.
  }

  [[nodiscard]] Rng& rng() noexcept override { return outer_.rng(); }

 private:
  sim::Context& outer_;
  std::uint64_t slot_;
};

std::unique_ptr<MultiValuedConsensus> MultiValuedConsensus::make(
    core::ConsensusParams params, Bytes proposal) {
  params.validate(core::FaultModel::malicious);
  RCP_EXPECT(proposal.size() <= kMaxProposalBytes,
             "proposal exceeds 64 KiB");
  return std::unique_ptr<MultiValuedConsensus>(
      new MultiValuedConsensus(params, std::move(proposal)));
}

MultiValuedConsensus::MultiValuedConsensus(core::ConsensusParams params,
                                           Bytes proposal)
    : params_(params), proposal_(std::move(proposal)), rb_(params) {}

void MultiValuedConsensus::on_start(sim::Context& ctx) {
  ctx.broadcast(ProposalRb::encode_initial(ctx.self(), proposal_));
  open_current_slot(ctx);
  reconcile(ctx);
}

void MultiValuedConsensus::open_current_slot(sim::Context& ctx) {
  RCP_INVARIANT(slots_.size() == current_slot_, "slot opened out of order");
  const Value input =
      rb_.delivered(slot_origin(current_slot_)).has_value() ? Value::one
                                                            : Value::zero;
  slots_.push_back(core::MaliciousConsensus::make(params_, input));
  SlotContext sctx(ctx, current_slot_);
  slots_.back()->on_start(sctx);
  // Replay anything that arrived for this slot before we opened it.
  const auto it = deferred_.find(current_slot_);
  if (it != deferred_.end()) {
    const std::vector<sim::Envelope> backlog = std::move(it->second);
    deferred_.erase(it);
    for (const sim::Envelope& env : backlog) {
      slots_.back()->on_message(sctx, env);
    }
  }
}

void MultiValuedConsensus::reconcile(sim::Context& ctx) {
  for (;;) {
    if (decided_proposal_.has_value()) {
      return;
    }
    if (winning_slot_.has_value()) {
      // Waiting for the winner's proposal bytes (RB totality guarantees
      // they arrive: some correct process voted 1, so it delivered them).
      const auto bytes = rb_.delivered(*winning_origin_);
      if (!bytes.has_value()) {
        return;
      }
      decided_proposal_ = bytes;
      ctx.decide(Value::one);  // completion marker for the simulator
      return;
    }
    const auto decision = slots_[current_slot_]->decision();
    if (!decision.has_value()) {
      return;
    }
    if (*decision == Value::one) {
      winning_slot_ = current_slot_;
      winning_origin_ = slot_origin(current_slot_);
      continue;
    }
    current_slot_ += 1;
    open_current_slot(ctx);
  }
}

void MultiValuedConsensus::on_message(sim::Context& ctx,
                                      const sim::Envelope& env) {
  if (ProposalRb::is_proposal_msg(env.payload)) {
    ProposalRb::Outcome outcome;
    try {
      outcome = rb_.handle(env.sender, env.payload);
    } catch (const DecodeError&) {
      return;
    }
    for (const Bytes& reply : outcome.to_broadcast) {
      ctx.broadcast(reply);
    }
    if (outcome.delivered.has_value()) {
      reconcile(ctx);
    }
    return;
  }
  // Slot-wrapped binary-protocol traffic.
  if (env.payload.empty() ||
      static_cast<std::uint8_t>(env.payload.front()) != kSlotWrapped) {
    return;  // unknown tag; drop
  }
  std::uint64_t slot = 0;
  Bytes inner;
  try {
    ByteReader r(env.payload);
    (void)r.u8();
    slot = r.u64();
    inner.assign(env.payload.begin() + 9, env.payload.end());
  } catch (const DecodeError&) {
    return;
  }
  sim::Envelope unwrapped = env;
  unwrapped.payload = std::move(inner);
  if (slot >= slots_.size()) {
    deferred_[slot].push_back(std::move(unwrapped));
    return;
  }
  SlotContext sctx(ctx, slot);
  slots_[slot]->on_message(sctx, unwrapped);
  reconcile(ctx);
}

}  // namespace rcp::ext
