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
      tally_(static_cast<std::size_t>(kPhaseWindow) * params.n, params.n,
             static_cast<std::uint32_t>(kBothValues.size())) {
  // rcp-lint: allow(hot-alloc) one-time table setup at construction
  initial_next_.assign(params.n, 0);
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

void EchoEngine::record_overflow(ProcessId sender,
                                 const EchoProtocolMsg& msg) {
  // Exact set semantics for the dedup triple when its phase cannot be
  // indexed by the flat window: scan-and-insert in the overflow ledger.
  for (const OverflowEntry& entry : echo_overflow_) {
    if (entry.echoer == sender && entry.origin == msg.from &&
        entry.phase == msg.phase) {
      return;
    }
  }
  // rcp-lint: allow(hot-alloc) overflow ledger holds beyond-window phases
  echo_overflow_.push_back(OverflowEntry{.echoer = sender,
                                         .origin = msg.from,
                                         .value = msg.value,
                                         .phase = msg.phase});
}

void EchoEngine::hold_crossing(Phase phase, Accept accept) {
  // rcp-lint: allow(hot-alloc) crossing list growth until steady state
  crossings_.push_back(Crossing{.phase = phase, .accept = accept});
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
  // Reclaim the rows of phases that are now in the past: their echoes
  // would be dropped as stale before the vote anyway. Each phase's rows
  // are contiguous (slot-major layout), one flat fill per phase; the
  // slot's live-bit counter resets with it.
  const Phase last_reclaimed =
      std::min(new_phase, window_base_ + kPhaseWindow);
  for (Phase t = window_base_; t < last_reclaimed; ++t) {
    tally_.reset_rows(window_row(t, 0), params_.n);
    slot_live_bits_[t & (kPhaseWindow - 1)] = 0;
  }
  window_base_ = new_phase;

  // Overflow entries whose phases slid into the window are counted in
  // their rows now; stale ones drop; the remainder compacts in place.
  // A phase's overflow echoes all arrived before any of its in-window
  // echoes (it was beyond the window until this advance), so counting
  // them here, in ledger order, keeps arrival order. They land in rows
  // reclaimed above, and the ledger is exact, so every vote counts.
  std::size_t kept_overflow = 0;
  for (std::size_t i = 0; i < echo_overflow_.size(); ++i) {
    const OverflowEntry entry = echo_overflow_[i];
    if (entry.phase < new_phase) {
      continue;  // stale
    }
    if (entry.phase - new_phase < kPhaseWindow) {
      const Vote vote = tally_.vote(window_row(entry.phase, entry.origin),
                                    entry.echoer, entry.value);
      if (vote.status != VoteStatus::duplicate) {
        ++slot_live_bits_[entry.phase & (kPhaseWindow - 1)];
      }
      if (vote.count == params_.echo_acceptance_threshold()) {
        hold_crossing(entry.phase,
                      Accept{.origin = entry.origin, .value = entry.value});
      }
      continue;
    }
    echo_overflow_[kept_overflow++] = entry;
  }
  // rcp-lint: allow(hot-alloc) shrinking resize, recycles in place
  echo_overflow_.resize(kept_overflow);

  // Hand out the new phase's crossings in arrival order; keep later
  // phases by stable in-place compaction, drop skipped ones.
  replayed_.clear();
  std::size_t kept_crossings = 0;
  for (std::size_t i = 0; i < crossings_.size(); ++i) {
    const Crossing c = crossings_[i];
    if (c.phase == new_phase) {
      // rcp-lint: allow(hot-alloc) result buffer growth until steady state
      replayed_.push_back(c.accept);
    } else if (c.phase > new_phase) {
      crossings_[kept_crossings++] = c;
    }
  }
  // rcp-lint: allow(hot-alloc) shrinking resize, recycles in place
  crossings_.resize(kept_crossings);
  return replayed_;
}

std::size_t EchoEngine::memory_bytes() const noexcept {
  return tally_.memory_bytes() + initial_next_.capacity() * sizeof(Phase) +
         initial_sparse_.capacity() * sizeof(initial_sparse_[0]) +
         echo_overflow_.capacity() * sizeof(OverflowEntry) +
         crossings_.capacity() * sizeof(Crossing) +
         replayed_.capacity() * sizeof(Accept);
}

}  // namespace rcp::core
