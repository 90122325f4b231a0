// Sim-mode service driver: one deterministic asynchronous simulation of a
// full KV-service group — n replicas (minus any Byzantine seats), a
// preloaded workload, and the adversary zoo — returning the per-replica
// state digests the equivalence tests compare and the throughput counters
// the load generator aggregates.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "service/replica.hpp"
#include "service/workload.hpp"
#include "sim/simulation.hpp"

namespace rcp::service {

enum class KvAdversaryKind : std::uint8_t {
  none,
  equivocator,
  babbler,
  lane_jammer,
};

struct SimServiceConfig {
  core::ConsensusParams params{4, 1};
  std::uint32_t shards = 1;
  std::uint64_t total_ops = 1000;
  std::uint32_t window = 32;
  std::uint64_t seed = 1;
  /// 0 derives a bound from the workload size.
  std::uint64_t max_steps = 0;
  /// Byzantine seats (highest ids), running `adversary`.
  std::uint32_t byzantine = 0;
  KvAdversaryKind adversary = KvAdversaryKind::none;
  /// Retain per-stream op logs in every replica (prefix checks in tests).
  bool keep_log = false;
  /// Record own-op submit->apply wall latencies (ms) across replicas.
  bool collect_latencies = false;
};

struct SimServiceResult {
  sim::RunStatus status{};
  std::uint64_t steps = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t ops = 0;  ///< correct ops expected (= workload total)
  std::uint64_t ops_applied_min = 0;  ///< min over correct replicas
  /// Correct replica ids, then one entry per correct replica in that order:
  std::vector<ProcessId> correct_ids;
  std::vector<std::uint64_t> digests;          ///< full KvStore digest
  std::vector<std::uint64_t> correct_digests;  ///< fold over correct streams
  /// correct_stream_digest of the workload's reference_store().
  std::uint64_t reference_digest = 0;
  /// Every entry of correct_digests equals reference_digest.
  bool matches_reference = false;
  /// Batching totals over correct replicas.
  std::uint64_t batches = 0;
  std::uint64_t batched_msgs = 0;
  std::uint64_t unbatched_msgs = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t engine_drops = 0;  ///< origin/value/retired/dup/overflow/flood
  /// Replica-level pre-engine drops: bad shard, bad origin.
  std::uint64_t admission_drops = 0;
  std::vector<double> latencies_ms;  ///< when collect_latencies
};

/// Digest over the streams owned by correct origins only — immune to the
/// partially-applied tail of a Byzantine stream at the stop instant (Bracha
/// totality is eventual; the run stops when the *expected* ops are in).
/// Origins 0..correct-1 are the correct ones.
[[nodiscard]] std::uint64_t correct_stream_digest(const KvStore& kv,
                                                  std::uint32_t correct,
                                                  std::uint32_t shards);

[[nodiscard]] SimServiceResult run_sim_service(const SimServiceConfig& cfg);

}  // namespace rcp::service
