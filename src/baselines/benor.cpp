#include "baselines/benor.hpp"

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace rcp::baselines {

namespace {

constexpr std::uint8_t kReportTag = 10;
constexpr std::uint8_t kProposeTag = 11;
constexpr std::uint8_t kBottom = 2;  ///< proposal "?" (no value)

using BenOrMsg = BenOrConsensus::WireMsg;

Bytes encode(const BenOrMsg& msg) {
  ByteWriter w(10);
  w.u8(msg.stage == 0 ? kReportTag : kProposeTag).u64(msg.round).u8(msg.val);
  return std::move(w).take();
}

BenOrMsg decode(const Bytes& payload) {
  ByteReader r(payload);
  const std::uint8_t tag = r.u8();
  BenOrMsg msg;
  if (tag == kReportTag) {
    msg.stage = 0;
  } else if (tag == kProposeTag) {
    msg.stage = 1;
  } else {
    throw DecodeError("not a Ben-Or message");
  }
  msg.round = r.u64();
  msg.val = r.u8();
  r.expect_done();
  const std::uint8_t limit = msg.stage == 0 ? 1 : kBottom;
  if (msg.val > limit) {
    throw DecodeError("Ben-Or value out of range");
  }
  return msg;
}

}  // namespace

Bytes BenOrConsensus::encode_wire(const WireMsg& msg) {
  return encode(msg);
}

BenOrConsensus::WireMsg BenOrConsensus::decode_wire(const Bytes& payload) {
  return decode(payload);
}

std::unique_ptr<BenOrConsensus> BenOrConsensus::make(
    core::ConsensusParams params, BenOrVariant variant, Value initial_value) {
  RCP_EXPECT(params.n >= 1, "need at least one process");
  const std::uint32_t bound = variant == BenOrVariant::crash
                                  ? (params.n - 1) / 2
                                  : (params.n - 1) / 5;
  RCP_EXPECT(params.k <= bound,
             "k = " + std::to_string(params.k) +
                 " exceeds the Ben-Or resilience bound " +
                 std::to_string(bound) + " for n = " + std::to_string(params.n));
  return std::unique_ptr<BenOrConsensus>(
      new BenOrConsensus(params, variant, initial_value));
}

BenOrConsensus::BenOrConsensus(core::ConsensusParams params,
                               BenOrVariant variant,
                               Value initial_value) noexcept
    : params_(params), variant_(variant), value_(initial_value) {}

bool BenOrConsensus::report_majority(std::uint32_t count) const noexcept {
  // Crash variant: strict majority of the whole system (> n/2); Byzantine
  // variant: > (n+k)/2. Both predicates live in ConsensusParams so the
  // paper's threshold arithmetic has exactly one home.
  if (variant_ == BenOrVariant::crash) {
    return params_.is_witness_cardinality(count);
  }
  return params_.accepted_count_decides(count);
}

std::uint32_t BenOrConsensus::decide_threshold() const noexcept {
  // rcp-lint: allow(threshold) Ben-Or 1983 decide rule, not a Bracha quorum
  return variant_ == BenOrVariant::crash ? params_.k + 1 : 2 * params_.k + 1;
}

std::uint32_t BenOrConsensus::adopt_threshold() const noexcept {
  // rcp-lint: allow(threshold) Ben-Or 1983 adopt rule, not a Bracha quorum
  return variant_ == BenOrVariant::crash ? 1 : params_.k + 1;
}

void BenOrConsensus::on_start(sim::Context& ctx) {
  begin_round(ctx);
}

void BenOrConsensus::begin_round(sim::Context& ctx) {
  report_count_.reset();
  proposal_count_[0] = proposal_count_[1] = proposal_count_[2] = 0;
  in_propose_stage_ = false;
  ctx.broadcast(encode(BenOrMsg{.stage = 0,
                                .round = round_,
                                .val = static_cast<std::uint8_t>(value_)}));
}

void BenOrConsensus::on_message(sim::Context& ctx, const sim::Envelope& env) {
  BenOrMsg msg;
  try {
    msg = decode(env.payload);
  } catch (const DecodeError&) {
    return;
  }
  // At most one message per (sender, round, stage) is ever counted; a
  // Byzantine process cannot inflate tallies by repetition.
  if (!seen_.emplace(env.sender, msg.round, msg.stage).second) {
    return;
  }
  if (msg.round < round_) {
    return;  // stale
  }
  const bool ready_now =
      msg.round == round_ && msg.stage == (in_propose_stage_ ? 1 : 0);
  if (!ready_now) {
    if (msg.round == round_ && msg.stage == 0 && in_propose_stage_) {
      return;  // report for a closed report stage; stale
    }
    // Ahead of us (future round, or proposal while we collect reports):
    // park it. An internal buffer replaces the paper-style self-requeue so
    // the sender's identity in seen_ bookkeeping stays authentic.
    deferred_.push_back(msg);
    return;
  }
  if (msg.stage == 0) {
    handle_report(ctx, value_from_int(msg.val));
  } else {
    handle_proposal(ctx, msg.val);
  }
  // A completed stage may unlock deferred messages (possibly cascading
  // through several stages/rounds).
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      const BenOrMsg& d = deferred_[i];
      if (d.round < round_ ||
          (d.round == round_ && d.stage == 0 && in_propose_stage_)) {
        deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
        break;  // prune stale entries
      }
      if (d.round == round_ && d.stage == (in_propose_stage_ ? 1 : 0)) {
        const BenOrMsg live = d;
        deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
        if (live.stage == 0) {
          handle_report(ctx, value_from_int(live.val));
        } else {
          handle_proposal(ctx, live.val);
        }
        progress = true;
        break;
      }
    }
  }
}

void BenOrConsensus::handle_report(sim::Context& ctx, Value v) {
  report_count_[v] += 1;
  if (report_count_.total() < params_.wait_quorum()) {
    return;
  }
  // Report stage complete: propose the supermajority value if one exists.
  std::uint8_t proposal = kBottom;
  for (const Value i : kBothValues) {
    if (report_majority(report_count_[i])) {
      proposal = static_cast<std::uint8_t>(i);
    }
  }
  in_propose_stage_ = true;
  ctx.broadcast(
      encode(BenOrMsg{.stage = 1, .round = round_, .val = proposal}));
}

void BenOrConsensus::handle_proposal(sim::Context& ctx, std::uint8_t proposal) {
  proposal_count_[proposal] += 1;
  const std::uint32_t total =
      proposal_count_[0] + proposal_count_[1] + proposal_count_[2];
  if (total < params_.wait_quorum()) {
    return;
  }
  // Proposal stage complete: decide / adopt / flip.
  const std::uint32_t zeros = proposal_count_[0];
  const std::uint32_t ones = proposal_count_[1];
  const Value leader = ones > zeros ? Value::one : Value::zero;
  const std::uint32_t leader_count = ones > zeros ? ones : zeros;
  if (leader_count >= decide_threshold()) {
    value_ = leader;
    if (!decision_.has_value()) {
      decision_ = leader;
      ctx.decide(leader);
    }
  } else if (leader_count >= adopt_threshold()) {
    value_ = leader;
  } else {
    value_ = ctx.rng().bernoulli(0.5) ? Value::one : Value::zero;
    ++coin_flips_;
  }
  round_ += 1;
  begin_round(ctx);
}

}  // namespace rcp::baselines
