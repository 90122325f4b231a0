// Multivalued Byzantine consensus from the paper's binary protocol — the
// classic reduction, built entirely from pieces this repository already
// proves correct:
//
//   1. every process reliably broadcasts its (arbitrary-bytes) proposal —
//      Bracha broadcast on RbEngine over interned proposal bodies
//      (ProposalRb), so per origin at most one version is ever delivered
//      anywhere, even from an equivocating proposer;
//   2. processes then sweep candidate slots s = 0, 1, 2, ... (slot s
//      belongs to origin s mod n) and run one instance of the Figure 2
//      binary protocol per slot, asking "has origin(s)'s proposal been
//      delivered here?";
//   3. the first slot to decide 1 wins: its origin's RB-delivered proposal
//      is the consensus value.
//
// Why it is safe and live for k <= floor((n-1)/3):
//   - all correct processes agree on every slot's binary outcome
//     (Theorem 4), hence on the first winning slot, hence (RB consistency)
//     on the winning bytes;
//   - a slot can only decide 1 if some correct process voted 1 (Figure 2
//     validity: with all correct inputs 0, at most k accepted 1-messages
//     can never exceed the (n+k)/2 decision threshold), and that process
//     had delivered the proposal, so by RB totality everyone does;
//   - if an entire pass of n slots decides 0, the sweep continues with
//     fresh instances; by then every correct proposal is delivered at
//     every correct process, so the next slot owned by a correct origin
//     starts with unanimous 1-inputs and must decide 1.
//
// A process signals completion through Context::decide(Value::one) (the
// binary decision slot is a completion marker in the simulator); the
// agreed bytes are exposed via decided_proposal().
//
// Earlier binary slot instances keep participating after their decision —
// exactly the Figure 2 never-exit discipline — so stragglers still in an
// earlier slot always find live quorums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/process.hpp"
#include "common/types.hpp"
#include "core/malicious.hpp"
#include "core/params.hpp"
#include "extensions/rb_engine.hpp"

namespace rcp::ext {

/// Reliable broadcast of one arbitrary-bytes proposal per origin: one
/// RbEngine instance per origin (tag 0) whose values are indices into a
/// per-origin table of interned proposal bodies. Messages carry the full
/// bytes, so equal index means equal bytes, with no hashing. A body is
/// interned only for a vote the engine will count, so each origin holds at
/// most 2n + 1 bodies and an origin >= n never creates state.
class ProposalRb {
 public:
  explicit ProposalRb(core::ConsensusParams params);

  struct Outcome {
    std::vector<Bytes> to_broadcast;  ///< encoded echo/ready transitions
    /// Set when this input completed a delivery: (origin, proposal).
    std::optional<std::pair<ProcessId, Bytes>> delivered;
  };

  /// The encoded initial message carrying our own proposal.
  [[nodiscard]] static Bytes encode_initial(ProcessId self,
                                            const Bytes& proposal);

  /// True if `payload` looks like a ProposalRb message (tag match).
  [[nodiscard]] static bool is_proposal_msg(const Bytes& payload);

  /// Feeds one raw payload from authenticated `sender`. Throws DecodeError
  /// on malformed input.
  [[nodiscard]] Outcome handle(ProcessId sender, const Bytes& payload);

  [[nodiscard]] std::optional<Bytes> delivered(ProcessId origin) const;
  [[nodiscard]] std::size_t delivered_count() const noexcept {
    return delivered_count_;
  }
  /// Distinct proposal bodies interned for `origin` (at most 2n + 1).
  [[nodiscard]] std::size_t interned_count(ProcessId origin) const noexcept {
    return origin < bodies_.size() ? bodies_[origin].size() : 0;
  }

 private:
  /// The table index of `body` for `origin`, appending it on first sight.
  [[nodiscard]] RbValue intern(ProcessId origin,
                               std::span<const std::byte> body);

  std::uint32_t n_;
  RbEngine engine_;
  /// bodies_[origin][v]: the proposal body the engine knows as value v.
  std::vector<std::vector<Bytes>> bodies_;
  std::size_t delivered_count_ = 0;
};

class MultiValuedConsensus final : public sim::Process {
 public:
  /// Validating factory: k <= floor((n-1)/3); proposal up to 64 KiB.
  [[nodiscard]] static std::unique_ptr<MultiValuedConsensus> make(
      core::ConsensusParams params, Bytes proposal);

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;
  /// Reports the slot index being swept (for metrics/fault injection).
  [[nodiscard]] Phase phase() const noexcept override { return current_slot_; }

  [[nodiscard]] std::optional<Bytes> decided_proposal() const noexcept {
    return decided_proposal_;
  }
  [[nodiscard]] std::optional<ProcessId> winning_origin() const noexcept {
    return winning_origin_;
  }
  [[nodiscard]] std::size_t proposals_delivered() const noexcept {
    return rb_.delivered_count();
  }

 private:
  MultiValuedConsensus(core::ConsensusParams params, Bytes proposal);

  class SlotContext;

  [[nodiscard]] ProcessId slot_origin(std::uint64_t slot) const noexcept {
    return static_cast<ProcessId>(slot % params_.n);
  }

  /// Creates and starts the binary instance for `current_slot_`.
  void open_current_slot(sim::Context& ctx);
  /// Reacts to slot decisions / proposal deliveries; may advance slots,
  /// replay deferred messages, or finalize.
  void reconcile(sim::Context& ctx);

  core::ConsensusParams params_;
  Bytes proposal_;
  ProposalRb rb_;
  /// One binary instance per opened slot; earlier ones stay alive.
  std::vector<std::unique_ptr<core::MaliciousConsensus>> slots_;
  std::uint64_t current_slot_ = 0;
  /// Messages for slots we have not opened yet.
  std::map<std::uint64_t, std::vector<sim::Envelope>> deferred_;
  /// Slot that decided 1, waiting for its proposal to be delivered.
  std::optional<std::uint64_t> winning_slot_;
  std::optional<ProcessId> winning_origin_;
  std::optional<Bytes> decided_proposal_;
};

}  // namespace rcp::ext
