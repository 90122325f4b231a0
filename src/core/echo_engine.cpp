// Cold paths and phase-advance bookkeeping of EchoEngine; the per-message
// fast path is inline in echo_engine.hpp. Everything here is off the
// per-echo critical path: construction, initial-message ledgers, the
// overflow ledger for beyond-window phases, and advance()'s bulk
// reclamation.

#include "core/echo_engine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcp::core {

EchoEngine::EchoEngine(ConsensusParams params)
    : params_(params),
      echo_window_(static_cast<std::size_t>(kPhaseWindow) * params.n,
                   params.n),
      tally_stride_(padded_to_cache_line<std::uint32_t>(params.n)) {
  // rcp-lint: allow(hot-alloc) one-time table setup at construction
  initial_next_.assign(params.n, 0);
  // rcp-lint: allow(hot-alloc) one-time table setup at construction
  tally_lanes_.assign(2 * tally_stride_, 0);
}

void EchoEngine::handle_initial(Outcome& out, ProcessId sender,
                                const EchoProtocolMsg& msg) {
  // Initial message: the model's authenticated identities let us reject
  // forgeries outright. Without this check one malicious process could
  // equivocate *on behalf of a correct one*, voiding the paper's
  // consistency claim.
  if (msg.from != sender) {
    return;
  }
  if (!initial_is_fresh(msg.from, msg.phase)) {
    return;  // duplicate initial; only the first is echoed
  }
  out.echo_to_broadcast = EchoProtocolMsg{
      .is_echo = true, .from = msg.from, .value = msg.value, .phase = msg.phase};
}

void EchoEngine::defer_echo(const EchoProtocolMsg& msg) {
  // rcp-lint: allow(hot-alloc) deferred ring growth until steady state
  deferred_.push_back(
      DeferredEcho{.origin = msg.from, .value = msg.value, .phase = msg.phase});
}

void EchoEngine::handle_echo_outside_window(Outcome& out, ProcessId sender,
                                            const EchoProtocolMsg& msg,
                                            Phase current_phase) {
  // Exact set semantics for the dedup triple when its phase cannot be
  // indexed by the flat window: scan-and-insert in the overflow ledger.
  for (const OverflowEntry& entry : echo_overflow_) {
    if (entry.echoer == sender && entry.origin == msg.from &&
        entry.phase == msg.phase) {
      return;
    }
  }
  // rcp-lint: allow(hot-alloc) overflow ledger holds beyond-window phases
  echo_overflow_.push_back(
      OverflowEntry{.echoer = sender, .origin = msg.from, .phase = msg.phase});
  if (msg.phase > current_phase) {
    defer_echo(msg);
    return;
  }
  out.accepted = tally(msg.from, msg.value);
}

bool EchoEngine::initial_is_fresh(ProcessId origin, Phase phase) {
  Phase& next = initial_next_[origin];
  if (phase < next) {
    return false;  // below the watermark: certainly seen
  }
  if (phase == next) {
    // The common case — a correct origin's phases arrive contiguously.
    // Absorb any sparse entries the new watermark now makes contiguous.
    ++next;
    for (bool absorbed = true; absorbed;) {
      absorbed = false;
      for (std::size_t i = 0; i < initial_sparse_.size(); ++i) {
        if (initial_sparse_[i].first == origin &&
            initial_sparse_[i].second == next) {
          initial_sparse_[i] = initial_sparse_.back();
          initial_sparse_.pop_back();
          ++next;
          absorbed = true;
          break;
        }
      }
    }
    return true;
  }
  // Above the watermark: only a Byzantine origin skips phases. Exact set
  // semantics via the sparse ledger.
  for (const auto& entry : initial_sparse_) {
    if (entry.first == origin && entry.second == phase) {
      return false;
    }
  }
  // rcp-lint: allow(hot-alloc) sparse ledger holds Byzantine-skipped phases
  initial_sparse_.emplace_back(origin, phase);
  return true;
}

std::span<const EchoEngine::Accept> EchoEngine::advance(Phase new_phase) {
  RCP_EXPECT(new_phase >= window_base_,
             "EchoEngine phases advance monotonically");
  // Reset both SoA tally lanes with one flat fill (uint32 lanes are
  // contiguous in a single aligned buffer).
  std::fill(tally_lanes_.begin(), tally_lanes_.end(), 0);

  // Reclaim dedup rows for phases that are now in the past: their echoes
  // would be dropped as stale before the dedup check anyway. Each phase's
  // rows are contiguous (slot-major layout), one flat fill per
  // phase; the slot's live-bit counter resets with it.
  const Phase last_reclaimed =
      std::min(new_phase, window_base_ + kPhaseWindow);
  for (Phase t = window_base_; t < last_reclaimed; ++t) {
    echo_window_.clear_rows(window_row(t, 0), params_.n);
    slot_live_bits_[t & (kPhaseWindow - 1)] = 0;
  }
  window_base_ = new_phase;

  // Overflow entries whose phases slid into the window migrate to bitset
  // rows; stale ones drop; the remainder compacts in place. Migrated
  // entries land in rows reclaimed above (the overflow ledger is exact, so
  // every migration sets a fresh bit), and the slot counters follow.
  std::size_t kept_overflow = 0;
  for (std::size_t i = 0; i < echo_overflow_.size(); ++i) {
    const OverflowEntry entry = echo_overflow_[i];
    if (entry.phase < new_phase) {
      continue;  // stale
    }
    if (entry.phase - new_phase < kPhaseWindow) {
      if (echo_window_.test_and_set(window_row(entry.phase, entry.origin),
                                    entry.echoer)) {
        ++slot_live_bits_[entry.phase & (kPhaseWindow - 1)];
      }
      continue;
    }
    echo_overflow_[kept_overflow++] = entry;
  }
  // rcp-lint: allow(hot-alloc) shrinking resize, recycles in place
  echo_overflow_.resize(kept_overflow);

  // Replay deferred echoes for the new phase in arrival order; keep later
  // phases by stable in-place compaction (the recycling-ring idiom — the
  // ring's capacity is the steady state, no per-advance allocation).
  replayed_.clear();
  std::size_t kept_deferred = 0;
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    const DeferredEcho d = deferred_[i];
    if (d.phase == new_phase) {
      if (auto a = tally(d.origin, d.value)) {
        // rcp-lint: allow(hot-alloc) replay buffer growth until steady state
        replayed_.push_back(*a);
      }
    } else if (d.phase > new_phase) {
      deferred_[kept_deferred++] = d;
    }
    // d.phase < new_phase: stale by now; dropped.
  }
  // rcp-lint: allow(hot-alloc) shrinking resize, recycles in place
  deferred_.resize(kept_deferred);
  return replayed_;
}

std::uint32_t EchoEngine::echo_count(ProcessId origin,
                                     Value value) const noexcept {
  return origin < params_.n ? tally_lanes_[lane_index(origin, value)] : 0;
}

std::size_t EchoEngine::memory_bytes() const noexcept {
  return echo_window_.memory_bytes() +
         initial_next_.capacity() * sizeof(Phase) +
         initial_sparse_.capacity() * sizeof(initial_sparse_[0]) +
         echo_overflow_.capacity() * sizeof(OverflowEntry) +
         tally_lanes_.capacity() * sizeof(std::uint32_t) +
         deferred_.capacity() * sizeof(DeferredEcho) +
         replayed_.capacity() * sizeof(Accept);
}

}  // namespace rcp::core
