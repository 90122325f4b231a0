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
//  - deferral of echoes for future phases (the pseudocode's self-requeue
//    device, implemented as an internal buffer so the original echoer's
//    identity survives the wait — a literal self-send would overwrite it).
//
// The bookkeeping is flat and allocation-free in steady state (the repo's
// hot-alloc contract, docs/PERF.md "Quorum accounting"): echo dedup lives
// in a BitRows matrix indexed by (phase mod window, origin) with the echoer
// as the bit, tallies are struct-of-arrays counter lanes (one contiguous
// cache-line-aligned lane per value, padded so lanes never share a line),
// and the deferred buffer is a recycling ring compacted in place. The
// per-echo fast path — bounds checks, one dedup bit test-and-set, one lane
// increment against the Figure-2 threshold — is defined here in the header
// so callers' message loops inline it whole; the rare cases a flat window
// cannot index exactly (echoes deferred beyond the window, out-of-order
// initial phases) spill to small exact side ledgers behind cold out-of-line
// calls, so the observable semantics match the node-based containers they
// replaced bit for bit (pinned by the trace-digest goldens). Bulk work —
// phase-window reclamation, tally resets — is one flat library fill.
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

  /// Feeds a decoded message received from authenticated `sender` while the
  /// caller is in `current_phase`. Messages naming an origin outside
  /// [0, n) are dropped up front: correct processes only ever echo real
  /// process ids, so a fabricated origin can never assemble an acceptance
  /// quorum — rejecting it early is outcome-identical and keeps the flat
  /// tables indexable by origin.
  ///
  /// Defined inline: this is the per-message hot path, and at bench scale
  /// the cross-TU call (spilled registers, reloaded loop invariants) costs
  /// as much as the bookkeeping itself.
  [[nodiscard]] Outcome handle(ProcessId sender, const EchoProtocolMsg& msg,
                               Phase current_phase) {
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
    // Stale echoes are dropped without touching the dedup table: recording
    // them would let a Byzantine process grow our memory without bound by
    // replaying old-phase traffic.
    if (msg.phase < current_phase) {
      return out;
    }
    // Mirror image of the origin bound above: n is the whole id space, so
    // an out-of-range echoer cannot occur through any transport; dropping
    // is outcome-identical and keeps the bit index in range.
    if (sender >= params_.n) {
      return out;
    }
    if (msg.phase >= window_base_ &&
        msg.phase - window_base_ < kPhaseWindow) [[likely]] {
      // At most one echo per (echoer, origin, phase) is processed,
      // regardless of value — so a correct receiver never counts two echoes
      // from the same echoer about the same origin and phase.
      if (!echo_window_.test_and_set(window_row(msg.phase, msg.from),
                                     sender)) {
        return out;
      }
      ++slot_live_bits_[msg.phase & (kPhaseWindow - 1)];
      if (msg.phase > current_phase) [[unlikely]] {
        defer_echo(msg);
        return out;
      }
      out.accepted = tally(msg.from, msg.value);
      return out;
    }
    handle_echo_outside_window(out, sender, msg, current_phase);
    return out;
  }

  /// Advances to a new phase: clears the per-phase echo tallies, reclaims
  /// dedup slots for phases now in the past, and replays deferred echoes
  /// addressed to `new_phase`. Returns the acceptance events the replay
  /// produced, in original arrival order; the view aliases an internal
  /// buffer and is valid until the next advance() call. Phases must be
  /// advanced monotonically.
  [[nodiscard]] std::span<const Accept> advance(Phase new_phase);

  /// Echo tally for (origin, value) in the current phase (test observer).
  [[nodiscard]] std::uint32_t echo_count(ProcessId origin,
                                         Value value) const noexcept;

  /// Number of echoes parked for phases beyond the current one.
  [[nodiscard]] std::size_t deferred_count() const noexcept {
    return deferred_.size();
  }

  /// Number of live echo dedup entries (memory-bound observability:
  /// advance() reclaims entries for past phases). Maintained incrementally
  /// — per-slot live-bit counters bumped on every fresh dedup bit, zeroed
  /// with their slot — so this is O(1); debug builds cross-check against a
  /// full popcount scan of the window.
  [[nodiscard]] std::size_t echo_dedup_size() const RCP_RELEASE_NOEXCEPT {
    std::size_t live = 0;
    for (const std::size_t slot : slot_live_bits_) {
      live += slot;
    }
#ifndef NDEBUG
    RCP_INVARIANT(live == echo_window_.popcount_all(),
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
  /// Dedup slots cover phases [window_base_, window_base_ + kPhaseWindow);
  /// beyond that, entries go to the exact overflow ledger. Power of two so
  /// the slot index is a mask. In a run the window only ever needs two live
  /// phases (current and next) — four slots leave slack for skewed peers.
  static constexpr Phase kPhaseWindow = 4;

  struct DeferredEcho {
    ProcessId origin = 0;
    Value value = Value::zero;
    Phase phase = 0;
  };

  /// An echo dedup entry for a phase outside the bitset window.
  struct OverflowEntry {
    ProcessId echoer = 0;
    ProcessId origin = 0;
    Phase phase = 0;
  };

  /// Counts one current-phase echo; returns an Accept if the threshold was
  /// crossed by exactly this echo. One increment in the value's SoA counter
  /// lane; the acceptance threshold is loop-invariant and inlines to a
  /// constant comparison.
  [[nodiscard]] std::optional<Accept> tally(ProcessId origin, Value value) {
    const std::uint32_t count = ++tally_lanes_[lane_index(origin, value)];
    if (count == params_.echo_acceptance_threshold()) {
      return Accept{.origin = origin, .value = value};
    }
    return std::nullopt;
  }

  /// Index of (origin, value) in the SoA tally lanes: lane `value`, slot
  /// `origin`; lanes are padded to whole cache lines (tally_stride_).
  [[nodiscard]] std::size_t lane_index(ProcessId origin,
                                       Value value) const noexcept {
    return value_index(value) * tally_stride_ + origin;
  }

  /// Cold path: initial-message forgery check + freshness ledger.
  void handle_initial(Outcome& out, ProcessId sender,
                      const EchoProtocolMsg& msg);

  /// Cold path: dedup + defer/tally for echoes whose phase lies outside
  /// the flat window (exact overflow-ledger semantics).
  void handle_echo_outside_window(Outcome& out, ProcessId sender,
                                  const EchoProtocolMsg& msg,
                                  Phase current_phase);

  /// Cold path: parks a fresh future-phase echo in the deferred ring.
  void defer_echo(const EchoProtocolMsg& msg);

  /// Exact `seen_initial_` set semantics over flat state: true (and
  /// records) when (origin, phase) was not yet seen.
  [[nodiscard]] bool initial_is_fresh(ProcessId origin, Phase phase);

  /// Row of echo_window_ holding phase's echoer bitset for `origin`.
  [[nodiscard]] std::size_t window_row(Phase phase,
                                       ProcessId origin) const noexcept {
    return static_cast<std::size_t>(phase & (kPhaseWindow - 1)) * params_.n +
           origin;
  }

  ConsensusParams params_;
  Phase window_base_ = 0;

  /// Initial-message ledger: per origin, phases [0, initial_next_[o]) are
  /// all seen (the contiguous watermark a correct origin produces), and
  /// initial_sparse_ holds the out-of-order exceptions exactly. Watermark
  /// absorption keeps the sparse ledger empty against correct traffic.
  std::vector<Phase> initial_next_;
  std::vector<std::pair<ProcessId, Phase>> initial_sparse_;

  /// Echo dedup: kPhaseWindow * n rows of n bits; row (slot, origin), bit
  /// echoer. Plus the exact overflow ledger for beyond-window phases.
  BitRows echo_window_;
  std::vector<OverflowEntry> echo_overflow_;

  /// Live dedup bits per window slot, maintained incrementally (bumped on
  /// every fresh test_and_set, zeroed when the slot's rows are reclaimed)
  /// so echo_dedup_size() never rescans the window.
  std::size_t slot_live_bits_[kPhaseWindow] = {};

  /// Current-phase tallies in struct-of-arrays form: lane v (a contiguous,
  /// cache-line-aligned run of tally_stride_ uint32 counters) holds every
  /// origin's tally for value v. Replaces the interleaved ValueCounts
  /// array: threshold scans touch one value's counters as one contiguous
  /// stream, and a phase reset is a single flat fill.
  AlignedVector<std::uint32_t> tally_lanes_;
  std::size_t tally_stride_ = 0;

  /// Recycling ring of future-phase echoes, compacted in place by
  /// advance(); order is arrival order.
  std::vector<DeferredEcho> deferred_;

  /// Reused advance() result buffer; the returned span aliases it.
  std::vector<Accept> replayed_;
};

}  // namespace rcp::core
