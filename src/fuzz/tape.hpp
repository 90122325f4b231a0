// The decision tape: how a SchedulePlan drives the simulator.
//
// Every nondeterministic choice the simulation makes — which process steps,
// which buffered message it receives (or phi) — is resolved by consuming
// one 32-bit value from a shared tape cursor, in a fixed order (scheduler
// draw first, then delivery draw). When the explicit tape runs out, the
// cursor switches to a SplitMix64 stream rooted at the plan's tape seed, so
// *every* plan defines a total schedule: mutations can truncate, extend or
// rewrite the tape freely and the run stays well-defined, and minimization
// can binary-search the shortest explicit prefix that still triggers the
// behaviour of interest.
//
// Decoding (stable; plan files depend on it):
//   scheduler: actor = eligible[v % |eligible|]
//   delivery:  phi      if phi_weight > 0 and (v & 0xff) < phi_weight
//              index    = (v >> 8) % |mailbox| otherwise
// phi models the paper's arbitrarily long transmission delay, i.e. the
// drop/delay decisions of the schedule; runs stay bounded by max_steps.
//
// Recording inverts the decode: Recording{Scheduler,Delivery} wrap any
// policy pair and append, per decision, the value the tape halves decode
// back to the same choice, so every run — whatever policies drove it — is
// replayable as an rcp-plan-v1 plan:
//   actor at eligible index i  ->  i
//   delivered message          ->  (j << 8) | 0xff, j its mailbox index
//                                  under TapeDelivery's swap-remove layout
//                                  (0xff >= every legal phi_weight)
//   phi                        ->  0 (needs the plan's phi_weight > 0)
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/delivery.hpp"
#include "sim/scheduler.hpp"

namespace rcp::fuzz {

/// Consumes the explicit tape, then an endless SplitMix64 fallback stream.
class TapeCursor {
 public:
  TapeCursor(std::vector<std::uint32_t> tape,
             std::uint64_t fallback_seed) noexcept
      : tape_(std::move(tape)), state_(fallback_seed) {}

  [[nodiscard]] std::uint32_t next() noexcept {
    if (pos_ < tape_.size()) {
      return tape_[pos_++];
    }
    ++fallback_draws_;
    return static_cast<std::uint32_t>(splitmix64(state_));
  }

  /// Values served from the explicit tape so far.
  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }
  /// Values served from the fallback stream so far.
  [[nodiscard]] std::uint64_t fallback_draws() const noexcept {
    return fallback_draws_;
  }

 private:
  std::vector<std::uint32_t> tape_;
  std::size_t pos_ = 0;
  std::uint64_t state_;
  std::uint64_t fallback_draws_ = 0;
};

/// Scheduler half of the tape: one cursor value per step.
class TapeScheduler final : public sim::SchedulerPolicy {
 public:
  explicit TapeScheduler(std::shared_ptr<TapeCursor> cursor) noexcept
      : cursor_(std::move(cursor)) {}

  [[nodiscard]] ProcessId pick(std::span<const ProcessId> eligible,
                               Rng& /*rng*/) override {
    const std::uint32_t v = cursor_->next();
    return eligible[v % eligible.size()];
  }

 private:
  std::shared_ptr<TapeCursor> cursor_;
};

/// Delivery half of the tape: one cursor value per delivery decision.
class TapeDelivery final : public sim::DeliveryPolicy {
 public:
  TapeDelivery(std::shared_ptr<TapeCursor> cursor,
               std::uint32_t phi_weight) noexcept
      : cursor_(std::move(cursor)), phi_weight_(phi_weight) {}

  [[nodiscard]] std::optional<std::size_t> pick(ProcessId /*receiver*/,
                                                const sim::Mailbox& mailbox,
                                                std::uint64_t /*now_step*/,
                                                Rng& /*rng*/) override {
    const std::uint32_t v = cursor_->next();
    if (phi_weight_ > 0 && (v & 0xffU) < phi_weight_) {
      return std::nullopt;
    }
    return static_cast<std::size_t>((v >> 8) % mailbox.size());
  }

 private:
  std::shared_ptr<TapeCursor> cursor_;
  std::uint32_t phi_weight_;
};

/// Both policy halves over one shared cursor.
struct TapePolicies {
  std::shared_ptr<TapeCursor> cursor;
  std::unique_ptr<sim::DeliveryPolicy> delivery;
  std::unique_ptr<sim::SchedulerPolicy> scheduler;
};

[[nodiscard]] inline TapePolicies make_tape_policies(
    std::vector<std::uint32_t> tape, std::uint64_t fallback_seed,
    std::uint32_t phi_weight) {
  auto cursor = std::make_shared<TapeCursor>(std::move(tape), fallback_seed);
  TapePolicies out;
  out.delivery = std::make_unique<TapeDelivery>(cursor, phi_weight);
  out.scheduler = std::make_unique<TapeScheduler>(cursor);
  out.cursor = std::move(cursor);
  return out;
}

/// Tape values appended by the recording policies.
using TapeSink = std::shared_ptr<std::vector<std::uint32_t>>;

/// Recording half of the scheduler: the inner policy picks, the tape gets
/// the actor's index in `eligible`.
class RecordingScheduler final : public sim::SchedulerPolicy {
 public:
  RecordingScheduler(std::unique_ptr<sim::SchedulerPolicy> inner,
                     TapeSink tape) noexcept
      : inner_(std::move(inner)), tape_(std::move(tape)) {}

  [[nodiscard]] ProcessId pick(std::span<const ProcessId> eligible,
                               Rng& rng) override {
    const ProcessId actor = inner_->pick(eligible, rng);
    const auto at = std::find(eligible.begin(), eligible.end(), actor);
    RCP_INVARIANT(at != eligible.end(), "scheduler picked an ineligible actor");
    tape_->push_back(static_cast<std::uint32_t>(at - eligible.begin()));
    return actor;
  }

 private:
  std::unique_ptr<sim::SchedulerPolicy> inner_;
  TapeSink tape_;
};

/// Recording half of delivery. The recorded run keeps the inner policy's
/// removal order (FIFO stays FIFO), while a replay swap-removes like every
/// non-order-preserving policy; a per-receiver shadow of the replay's
/// mailbox layout (envelope seqs) turns each choice into the index the
/// replay will see.
class RecordingDelivery final : public sim::DeliveryPolicy {
 public:
  RecordingDelivery(std::unique_ptr<sim::DeliveryPolicy> inner,
                    TapeSink tape) noexcept
      : inner_(std::move(inner)), tape_(std::move(tape)) {}

  [[nodiscard]] std::optional<std::size_t> pick(ProcessId receiver,
                                                const sim::Mailbox& mailbox,
                                                std::uint64_t now_step,
                                                Rng& rng) override {
    const auto choice = inner_->pick(receiver, mailbox, now_step, rng);
    if (receiver >= layouts_.size()) {
      layouts_.resize(receiver + 1);
    }
    std::vector<std::uint64_t>& layout = layouts_[receiver];
    // Arrivals since this receiver's last step sit at the back in both
    // layouts.
    const auto contents = mailbox.contents();
    RCP_INVARIANT(layout.size() <= contents.size(),
                  "mailbox shrank outside a delivery");
    for (std::size_t i = layout.size(); i < contents.size(); ++i) {
      layout.push_back(contents[i].seq);
    }
    if (!choice.has_value()) {
      tape_->push_back(0);
      return choice;
    }
    const auto at =
        std::find(layout.begin(), layout.end(), contents[*choice].seq);
    RCP_INVARIANT(at != layout.end(), "delivered message missing from layout");
    const auto j = static_cast<std::size_t>(at - layout.begin());
    RCP_EXPECT(j < (std::size_t{1} << 24),
               "mailbox index does not fit a tape value");
    tape_->push_back(static_cast<std::uint32_t>(j << 8) | 0xffU);
    *at = layout.back();
    layout.pop_back();
    return choice;
  }

  [[nodiscard]] bool order_preserving() const noexcept override {
    return inner_->order_preserving();
  }

 private:
  std::unique_ptr<sim::DeliveryPolicy> inner_;
  TapeSink tape_;
  std::vector<std::vector<std::uint64_t>> layouts_;
};

/// Both recording halves over one shared tape.
struct RecordingPolicies {
  TapeSink tape;
  std::unique_ptr<sim::DeliveryPolicy> delivery;
  std::unique_ptr<sim::SchedulerPolicy> scheduler;
};

/// Wraps the given policies (default: the simulator's uniform delivery and
/// random scheduler, so recording leaves the run unchanged).
[[nodiscard]] inline RecordingPolicies make_recording_policies(
    std::unique_ptr<sim::DeliveryPolicy> delivery = nullptr,
    std::unique_ptr<sim::SchedulerPolicy> scheduler = nullptr) {
  RecordingPolicies out;
  out.tape = std::make_shared<std::vector<std::uint32_t>>();
  out.delivery = std::make_unique<RecordingDelivery>(
      delivery ? std::move(delivery) : sim::make_uniform_delivery(), out.tape);
  out.scheduler = std::make_unique<RecordingScheduler>(
      scheduler ? std::move(scheduler) : sim::make_random_scheduler(),
      out.tape);
  return out;
}

}  // namespace rcp::fuzz
