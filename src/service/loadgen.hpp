// Sim-mode load generation: G independent service groups (the
// TrialPool-style worker shards of docs/SERVICE.md) run in parallel, each
// a deterministic simulation of its own replica set and key partition;
// the aggregate is ops/sec, latency percentiles, and frames-per-op.
#pragma once

#include <cstdint>

#include "service/sim_service.hpp"

namespace rcp::service {

struct SimLoadgenConfig {
  /// Per-group template; `group.total_ops` is the op count *per group* and
  /// `group.seed` the base seed each group derives from.
  SimServiceConfig group;
  std::uint32_t groups = 4;
  /// TrialPool size; 0 = default_threads().
  std::uint32_t threads = 0;
};

struct SimLoadgenResult {
  std::uint64_t total_ops = 0;
  double wall_seconds = 0;
  double ops_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  std::uint64_t messages_delivered = 0;
  /// Sim has no transport frames; delivered messages per op is the
  /// equivalent coalescing metric (batching shrinks it the same way).
  double frames_per_op = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_msgs = 0;
  /// Own ops per own block originated, over every correct replica.
  double ops_per_block = 0;
  /// Every group decided and its correct digests matched.
  bool all_ok = false;
};

[[nodiscard]] SimLoadgenResult run_sim_loadgen(const SimLoadgenConfig& cfg);

}  // namespace rcp::service
