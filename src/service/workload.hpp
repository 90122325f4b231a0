// Deterministic client workload generation shared by the sim driver, the
// net-mode load generator and the tests.
//
// Partitioning is the sharding contract (docs/SERVICE.md): a key hashes to
// exactly one (owner replica, shard) pair, the owner is the only origin
// that ever writes the key, and therefore the per-stream seq order — which
// Bracha delivery plus the replica's FIFO barrier replicate everywhere —
// fully determines the state. Byzantine replicas are assigned no keys.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "service/kv_store.hpp"

namespace rcp::service {

struct Workload {
  std::uint32_t n = 0;
  std::uint32_t shards = 1;
  std::uint32_t correct = 0;  ///< origins 0..correct-1 own keys
  std::uint64_t total_ops = 0;
  /// scripts[origin][shard] = that stream's ops, in origination order.
  std::vector<std::vector<std::vector<KvOp>>> scripts;
  /// Ops each origin will originate (the replica's termination target).
  std::vector<std::uint64_t> expected_per_origin;
};

/// Builds `total_ops` writes over a key space sized to produce both fresh
/// keys and overwrites, routed by key hash to the `n - byzantine` correct
/// owners (ids 0..n-byzantine-1) and their shards. Pure function of the
/// arguments.
[[nodiscard]] Workload build_workload(core::ConsensusParams params,
                                      std::uint32_t byzantine,
                                      std::uint32_t shards,
                                      std::uint64_t total_ops,
                                      std::uint64_t seed);

/// The store every correct replica must reach: each correct origin's
/// scripts applied in order to one KvStore. The KV drivers and tests
/// compare each replica's correct streams against it.
[[nodiscard]] KvStore reference_store(const Workload& workload);

}  // namespace rcp::service
