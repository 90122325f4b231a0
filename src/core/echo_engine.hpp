// The initial/echo acceptance machinery of Figure 2 — the ancestor of
// Bracha's consistent broadcast.
//
// A process's phase-t state is *accepted* at a receiver only after more
// than (n+k)/2 distinct processes echoed it. The paper proves that two
// correct processes can then never accept different values from the same
// origin in the same phase, because two such quorums would force a correct
// process to echo both values, which correct processes never do.
//
// The engine encapsulates all bookkeeping a correct process performs:
//  - authenticated-origin check on initial messages (the model makes sender
//    identity verifiable; an initial message claiming a different origin is
//    a forgery and is dropped),
//  - at-most-one-echo deduplication per (echoer, origin, phase),
//  - per-phase echo counting with single-shot acceptance at the threshold,
//  - early echoes for future phases (the pseudocode's self-requeue device)
//    are counted on arrival; a quorum they complete is held as a
//    *crossing* until advance() reaches its phase.
//
// The bookkeeping is flat and allocation-free in steady state (the repo's
// hot-alloc contract, docs/PERF.md "Quorum accounting"): one VoteTally
// (core/quorum.hpp) row per (phase mod window, origin) with the echoer as
// the gate bit, and a short crossing list. The per-echo fast path — bounds
// checks, one vote, one threshold comparison — is defined here in the
// header so callers' message loops inline it whole; the rare cases a flat
// window cannot index exactly (echoes beyond the window, out-of-order
// initial phases) spill to small exact side ledgers behind cold
// out-of-line calls, so the observable semantics match the node-based
// containers they replaced bit for bit (pinned by the trace-digest
// goldens).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/messages.hpp"
#include "core/params.hpp"
#include "core/quorum.hpp"

namespace rcp::core {

class EchoEngine {
 public:
  explicit EchoEngine(ConsensusParams params);

  /// An acceptance event: `origin`'s phase-state was accepted with `value`.
  struct Accept {
    ProcessId origin = 0;
    Value value = Value::zero;
  };

  /// Result of feeding one wire message into the engine.
  struct Outcome {
    /// Set if the input was a fresh initial message: the echo every correct
    /// process must broadcast in response.
    std::optional<EchoProtocolMsg> echo_to_broadcast;
    /// Set if this message made some (origin, value) cross the acceptance
    /// threshold in the current phase.
    std::optional<Accept> accepted;
  };

  /// Feeds a decoded message received from authenticated `sender` in the
  /// phase advance() last set (0 before any advance). Messages naming an
  /// origin outside [0, n) are dropped up front: correct processes only
  /// ever echo real process ids, so a fabricated origin can never assemble
  /// an acceptance quorum — rejecting it early is outcome-identical and
  /// keeps the flat tables indexable by origin.
  ///
  /// Defined inline: this is the per-message hot path, and at bench scale
  /// the cross-TU call (spilled registers, reloaded loop invariants) costs
  /// as much as the bookkeeping itself.
  [[nodiscard]] Outcome handle(ProcessId sender, const EchoProtocolMsg& msg) {
    Outcome out;
    // The wire format does not bound `from`; a fabricated origin >= n can
    // never be accepted (correct processes never echo it, and the k
    // possible Byzantine echoes are below any quorum), so drop it before it
    // can touch an origin-indexed table.
    if (msg.from >= params_.n) {
      return out;
    }
    if (!msg.is_echo) {
      handle_initial(out, sender, msg);
      return out;
    }
    // Stale echoes are dropped without touching the tally: recording them
    // would let a Byzantine process grow our memory without bound by
    // replaying old-phase traffic.
    if (msg.phase < window_base_) {
      return out;
    }
    // Mirror image of the origin bound above: n is the whole id space, so
    // an out-of-range echoer cannot occur through any transport; dropping
    // is outcome-identical and keeps the bit index in range.
    if (sender >= params_.n) {
      return out;
    }
    if (msg.phase - window_base_ < kPhaseWindow) [[likely]] {
      // At most one echo per (echoer, origin, phase) is counted,
      // regardless of value — so a correct receiver never counts two echoes
      // from the same echoer about the same origin and phase.
      const Vote vote =
          tally_.vote(window_row(msg.phase, msg.from), sender, msg.value);
      if (vote.status == VoteStatus::duplicate) {
        return out;
      }
      ++slot_live_bits_[msg.phase & (kPhaseWindow - 1)];
      if (vote.count == params_.echo_acceptance_threshold()) {
        const Accept accept{.origin = msg.from, .value = msg.value};
        if (msg.phase == window_base_) [[likely]] {
          out.accepted = accept;
        } else {
          hold_crossing(msg.phase, accept);
        }
      }
      return out;
    }
    record_overflow(sender, msg);
    return out;
  }

  /// Advances to a new phase: reclaims tally rows for phases now in the
  /// past, moves overflow-ledger echoes that fall into the window into
  /// their rows, and returns the crossings held for `new_phase` — the
  /// acceptances its early echoes completed — in arrival order. The view
  /// aliases an internal buffer and is valid until the next advance() call.
  /// Phases must be advanced monotonically; advancing to the current phase
  /// changes nothing.
  [[nodiscard]] std::span<const Accept> advance(Phase new_phase);

  /// Echo tally for (origin, value) in the current phase (test observer).
  [[nodiscard]] std::uint32_t echo_count(ProcessId origin,
                                         Value value) const noexcept {
    return origin < params_.n
               ? tally_.count(window_row(window_base_, origin), value)
               : 0;
  }

  /// Number of echoes recorded for phases beyond the current one: the live
  /// gate bits of the window's future slots plus the overflow ledger.
  [[nodiscard]] std::size_t deferred_count() const noexcept {
    std::size_t future = echo_overflow_.size();
    for (Phase t = window_base_ + 1; t < window_base_ + kPhaseWindow; ++t) {
      future += slot_live_bits_[t & (kPhaseWindow - 1)];
    }
    return future;
  }

  /// Number of live echo dedup entries (memory-bound observability:
  /// advance() reclaims entries for past phases). Maintained incrementally
  /// — per-slot live-bit counters bumped on every fresh dedup bit, zeroed
  /// with their slot — so this is O(1); debug builds cross-check against a
  /// full popcount scan of the window's gates.
  [[nodiscard]] std::size_t echo_dedup_size() const RCP_RELEASE_NOEXCEPT {
    std::size_t live = 0;
    for (const std::size_t slot : slot_live_bits_) {
      live += slot;
    }
#ifndef NDEBUG
    RCP_INVARIANT(live == tally_.voted_total(),
                  "incremental live-bit count matches window popcount");
#endif
    return live + echo_overflow_.size();
  }

  /// Entries currently spilled past the flat dedup window (exact overflow
  /// ledger); nonzero only when peers run more than kPhaseWindow phases
  /// ahead — a coverage signal the schedule fuzzer watches for.
  [[nodiscard]] std::size_t echo_overflow_size() const noexcept {
    return echo_overflow_.size();
  }

  /// Bytes retained across all internal tables (flat-memory observability;
  /// counts capacity, so it reflects the steady-state high-water mark).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  /// Tally rows cover phases [window_base_, window_base_ + kPhaseWindow);
  /// beyond that, echoes go to the exact overflow ledger. Power of two so
  /// the slot index is a mask. In a run the window only ever needs two live
  /// phases (current and next) — four slots leave slack for skewed peers.
  static constexpr Phase kPhaseWindow = 4;

  /// An echo whose phase lay beyond the window when it arrived.
  struct OverflowEntry {
    ProcessId echoer = 0;
    ProcessId origin = 0;
    Value value = Value::zero;
    Phase phase = 0;
  };

  /// An acceptance completed in a future phase, held until advance().
  struct Crossing {
    Phase phase = 0;
    Accept accept;
  };

  /// Cold path: initial-message forgery check + freshness ledger.
  void handle_initial(Outcome& out, ProcessId sender,
                      const EchoProtocolMsg& msg);

  /// Cold path: dedup into the exact overflow ledger for echoes whose
  /// phase lies beyond the window; they are counted when they migrate.
  void record_overflow(ProcessId sender, const EchoProtocolMsg& msg);

  /// Cold path: holds a future phase's acceptance for advance().
  void hold_crossing(Phase phase, Accept accept);

  /// Exact `seen_initial_` set semantics over flat state: true (and
  /// records) when (origin, phase) was not yet seen.
  [[nodiscard]] bool initial_is_fresh(ProcessId origin, Phase phase);

  /// Tally row of (phase, origin): slot-major, so a phase's rows are one
  /// contiguous span.
  [[nodiscard]] std::size_t window_row(Phase phase,
                                       ProcessId origin) const noexcept {
    return static_cast<std::size_t>(phase & (kPhaseWindow - 1)) * params_.n +
           origin;
  }

  ConsensusParams params_;
  /// The current phase: the one advance() last set.
  Phase window_base_ = 0;

  /// Initial-message ledger: per origin, phases [0, initial_next_[o]) are
  /// all seen (the contiguous watermark a correct origin produces), and
  /// initial_sparse_ holds the out-of-order exceptions exactly. Watermark
  /// absorption keeps the sparse ledger empty against correct traffic.
  std::vector<Phase> initial_next_;
  std::vector<std::pair<ProcessId, Phase>> initial_sparse_;

  /// Echo votes: kPhaseWindow * n rows of n gate bits and two value lanes;
  /// row (slot, origin), bit echoer. Plus the exact overflow ledger for
  /// beyond-window phases, in arrival order.
  VoteTally<Value> tally_;
  std::vector<OverflowEntry> echo_overflow_;

  /// Live gate bits per window slot, maintained incrementally (bumped on
  /// every counted vote, zeroed when the slot's rows are reclaimed) so
  /// echo_dedup_size() and deferred_count() never rescan the window.
  std::size_t slot_live_bits_[kPhaseWindow] = {};

  /// Acceptances completed in future phases, in arrival order; advance()
  /// hands out the new phase's and compacts the rest in place.
  std::vector<Crossing> crossings_;

  /// Reused advance() result buffer; the returned span aliases it.
  std::vector<Accept> replayed_;
};

}  // namespace rcp::core
