// Transport-level fault injection, mirroring the semantics of the
// simulator's adversaries (src/adversary/) at the socket layer:
//
//   drop   — a data frame's transmission is skipped with probability p
//            (like a lossy link; the ack/retransmit machinery recovers, so
//            end-to-end delivery stays reliable — the paper's model);
//   delay  — each outbound frame becomes eligible for transmission only
//            after a uniform-random hold (the paper's "arbitrarily long
//            transmission delay", bounded so runs terminate);
//   disconnect — the link to a chosen peer is force-closed once this node
//            has delivered a given number of messages; the connector's
//            backoff/reconnect path then restores it (the TCP analogue of
//            the simulator's partition-then-heal schedules).
//
// All randomness flows from the node's deterministic Rng, so a fault
// pattern is reproducible per (seed, node id) even though socket timing
// is not.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace rcp::net {

/// Link-level loss/latency knobs, applied to every peer of the node.
struct LinkFaults {
  /// Probability a data-frame transmission is skipped (recovered by
  /// retransmission). 0 disables.
  double drop_probability = 0.0;
  /// Uniform per-frame eligibility delay in [min, max] milliseconds.
  std::uint32_t delay_min_ms = 0;
  std::uint32_t delay_max_ms = 0;
};

/// Force-close the link to `peer` when the node's delivered-message count
/// reaches `after_delivered`, or as soon after that as the link is
/// established. Fires once.
struct DisconnectEvent {
  ProcessId peer = 0;
  std::uint64_t after_delivered = 0;
};

struct FaultPlan {
  LinkFaults link;
  std::vector<DisconnectEvent> disconnects;

  [[nodiscard]] bool any_link_faults() const noexcept {
    return link.drop_probability > 0.0 || link.delay_max_ms > 0;
  }
};

/// Stateful executor of one node's FaultPlan.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Should the next data-frame transmission be dropped?
  [[nodiscard]] bool should_drop();

  /// Eligibility delay for a frame enqueued now, in milliseconds.
  [[nodiscard]] std::uint32_t delay_ms();

  /// Peers whose disconnect events have matured at `delivered` messages.
  /// Each event fires at most once.
  [[nodiscard]] std::vector<ProcessId> due_disconnects(
      std::uint64_t delivered);

 private:
  FaultPlan plan_;
  Rng rng_;
  std::vector<bool> fired_;
};

}  // namespace rcp::net
