#include "extensions/bracha87.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcp::ext {

std::unique_ptr<Bracha87> Bracha87::make(core::ConsensusParams params,
                                         Value initial_value) {
  params.validate(core::FaultModel::malicious);
  return std::unique_ptr<Bracha87>(new Bracha87(params, initial_value));
}

Bracha87::Bracha87(core::ConsensusParams params, Value initial_value) noexcept
    : params_(params), value_(initial_value), engine_(params) {}

void Bracha87::on_start(sim::Context& ctx) {
  broadcast_step(ctx, 1, to_rb_value(value_));
}

void Bracha87::broadcast_step(sim::Context& ctx, int step, RbValue payload) {
  ctx.broadcast(engine_.start(ctx.self(), tag(round_, step), payload).encode());
}

Bracha87::Counts Bracha87::counts(std::uint64_t t) const {
  Counts c;
  const auto it = tags_.find(t);
  if (it == tags_.end()) {
    return c;
  }
  for (const auto& [origin, payload] : it->second.validated) {
    if (payload <= 1) {
      ++c.plain[payload];
    } else {
      ++c.proposal[payload - kProposal0];
    }
    ++c.total;
  }
  return c;
}

bool Bracha87::majority_reachable(const Counts& c, RbValue v) const {
  // Is v the tie-to-0 majority of some (n-k)-subset of the counted plain
  // messages? For v = 1 the subset needs a strict majority of 1s; for
  // v = 0 it needs at least half 0s (ties go to 0).
  const std::uint32_t quorum = params_.wait_quorum();
  if (c.plain[0] + c.plain[1] < quorum) {
    return false;  // cannot assemble a full subset yet
  }
  if (v == 1) {
    return c.plain[1] >= quorum / 2 + 1;
  }
  return c.plain[0] >= (quorum + 1) / 2;
}

bool Bracha87::is_valid(std::uint64_t t, RbValue payload) const {
  const Phase r = t / 3;
  const int step = static_cast<int>(t % 3) + 1;
  switch (step) {
    case 1: {
      if (payload > 1) {
        return false;
      }
      if (r == 0) {
        return true;  // initial inputs are unconstrained
      }
      const Counts prev = counts(tag(r - 1, 3));
      if (prev.total < params_.wait_quorum()) {
        return false;
      }
      // Adopt/decide case: more than k validated proposals for this value.
      if (prev.proposal[payload] > params_.k) {
        return true;
      }
      // Coin case: an (n-k)-subset with every proposal count <= k exists.
      const std::uint32_t excess0 =
          prev.proposal[0] > params_.k ? prev.proposal[0] - params_.k : 0;
      const std::uint32_t excess1 =
          prev.proposal[1] > params_.k ? prev.proposal[1] - params_.k : 0;
      return prev.total - excess0 - excess1 >= params_.wait_quorum();
    }
    case 2: {
      if (payload > 1) {
        return false;
      }
      return majority_reachable(counts(tag(r, 1)), payload);
    }
    case 3: {
      const Counts prev = counts(tag(r, 2));
      if (payload <= 1) {
        return majority_reachable(prev, payload);
      }
      // Decision proposal (w, D): w must hold a strict majority of the
      // whole system among the RB-consistent step-2 values.
      const RbValue w = payload - kProposal0;
      return 2ULL * prev.plain[w] > params_.n;
    }
    default:
      return false;
  }
}

bool Bracha87::revalidate() {
  bool moved_any = false;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [t, state] : tags_) {
      for (auto it = state.pending.begin(); it != state.pending.end();) {
        if (is_valid(t, it->second)) {
          state.validated.emplace(it->first, it->second);
          it = state.pending.erase(it);
          progress = true;
          moved_any = true;
        } else {
          ++it;
        }
      }
    }
  }
  return moved_any;
}

void Bracha87::try_advance(sim::Context& ctx) {
  for (;;) {
    const Counts c = counts(tag(round_, step_));
    if (c.total < params_.wait_quorum()) {
      return;
    }
    if (step_ == 1) {
      // v := majority of the validated step-1 values (ties to 0).
      value_ = c.plain[1] > c.plain[0] ? Value::one : Value::zero;
      step_ = 2;
      broadcast_step(ctx, 2, to_rb_value(value_));
    } else if (step_ == 2) {
      value_ = c.plain[1] > c.plain[0] ? Value::one : Value::zero;
      RbValue out = to_rb_value(value_);
      for (const RbValue w : {kRbValueZero, kRbValueOne}) {
        if (2ULL * c.plain[w] > params_.n) {
          value_ = value_from_int(w);
          out = kProposal0 + w;
        }
      }
      step_ = 3;
      broadcast_step(ctx, 3, out);
    } else {
      const RbValue leader =
          c.proposal[1] > c.proposal[0] ? kRbValueOne : kRbValueZero;
      const std::uint32_t votes = c.proposal[leader];
      // Bracha's 2k+1 / k+1 counting: 2k+1 decision proposals hold k+1
      // correct ones, so every correct process adopts w next round.
      if (votes >= params_.ready_delivery_threshold()) {
        value_ = value_from_int(leader);
        if (!decision_.has_value()) {
          decision_ = value_;
          ctx.decide(value_);
        }
      } else if (votes >= params_.ready_amplification_threshold()) {
        value_ = value_from_int(leader);
      } else {
        value_ = ctx.rng().bernoulli(0.5) ? Value::one : Value::zero;
        ++coin_flips_;
      }
      round_ += 1;
      step_ = 1;
      broadcast_step(ctx, 1, to_rb_value(value_));
    }
    // Entering a new (round, step) may immediately unlock deferred
    // validations whose justification step just filled in.
    (void)revalidate();
  }
}

void Bracha87::on_message(sim::Context& ctx, const sim::Envelope& env) {
  RbxMsg msg;
  try {
    msg = RbxMsg::decode(env.payload);
  } catch (const DecodeError&) {
    return;
  }
  RbEngine::Outcome outcome = engine_.handle(env.sender, msg);
  for (const RbxMsg& reply : outcome.to_broadcast) {
    ctx.broadcast(reply.encode());
  }
  if (!outcome.delivered.has_value()) {
    return;
  }
  TagState& state = tags_[outcome.delivered->tag];
  state.pending.emplace(outcome.delivered->origin, outcome.delivered->value);
  (void)revalidate();
  try_advance(ctx);
}

std::size_t Bracha87::pending_validation() const {
  std::size_t total = 0;
  for (const auto& [t, state] : tags_) {
    total += state.pending.size();
  }
  return total;
}

}  // namespace rcp::ext
