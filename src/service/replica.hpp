// KvReplica — one replica of the consensus-backed KV service.
//
// Every client write is one Bracha-broadcast instance in a multiplexed
// ext::RbEngine: the owner replica originates initial(tag, packed-op), the
// mesh echoes and readies, and each replica applies the op to its KvStore
// when the instance delivers *and* every earlier op of the same origin
// stream has been applied (the per-stream FIFO barrier — delivery order
// across instances is asynchronous, apply order is not). Out-of-order
// deliveries wait inside the engine, and only a per-stream count of them
// lives here: when the cursor's own delivery arrives, its value applies
// straight from the Delivery and delivered() is queried for the next seqs
// only while that count is non-zero. Applied instances are retired at
// once; their store writes are queued and reach the KvStore in one
// apply_all() at the end of each on_message (docs/SERVICE.md "FIFO
// barrier"). The engine's anchor-aware per-origin instance caps bound
// what Byzantine phantom spray can occupy without ever dropping real
// protocol votes — lost votes are never retransmitted, so receipt-time
// shedding of legitimate traffic is the one thing this layer must not do.
//
// Sharding: the 64-bit instance tag is (shard << 48) | seq; each shard has
// its own engine, its own seq space and its own origination window, so
// independent keys make progress in parallel and a slow shard cannot
// head-of-line-block the others. Batching: all outgoing engine traffic of
// one atomic step is flushed through an RbxBatcher as one frame per peer.
//
// The replica is a sans-io rcp::Process: the sim transport and the real
// TCP mesh (net::Node with NodeLimits::idle_tick_ms armed) drive the same
// object; client ops arrive through the pull-based OpSource.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/annotations.hpp"
#include "common/process.hpp"
#include "core/params.hpp"
#include "extensions/rb_engine.hpp"
#include "service/batcher.hpp"
#include "service/kv_store.hpp"

namespace rcp::service {

/// Tag layout: high 16 bits shard, low 48 bits per-(origin, shard) seq.
inline constexpr std::uint32_t kShardBits = 16;
inline constexpr std::uint64_t kSeqMask =
    (std::uint64_t{1} << (64 - kShardBits)) - 1;

[[nodiscard]] constexpr std::uint64_t make_tag(std::uint32_t shard,
                                               std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(shard) << (64 - kShardBits)) |
         (seq & kSeqMask);
}
[[nodiscard]] constexpr std::uint32_t shard_of(std::uint64_t tag) noexcept {
  return static_cast<std::uint32_t>(tag >> (64 - kShardBits));
}
[[nodiscard]] constexpr std::uint64_t seq_of(std::uint64_t tag) noexcept {
  return tag & kSeqMask;
}

/// Pull interface for client ops, one queue per shard. Implementations:
/// a preloaded deterministic script (sim tests, VectorOpSource below) or a
/// locked queue fed by client threads (net mode; lives with the caller —
/// the service layer itself stays free of OS concurrency).
class OpSource {
 public:
  virtual ~OpSource() = default;
  /// Next op for `shard`, or nullopt when none is queued right now.
  [[nodiscard]] virtual std::optional<KvOp> next(std::uint32_t shard) = 0;
};

/// Preloaded per-shard op scripts.
class VectorOpSource : public OpSource {
 public:
  explicit VectorOpSource(std::vector<std::vector<KvOp>> scripts)
      : scripts_(std::move(scripts)), pos_(scripts_.size(), 0) {}

  [[nodiscard]] std::optional<KvOp> next(std::uint32_t shard) override {
    if (shard >= scripts_.size() || pos_[shard] >= scripts_[shard].size()) {
      return std::nullopt;
    }
    return scripts_[shard][pos_[shard]++];
  }

 private:
  std::vector<std::vector<KvOp>> scripts_;
  std::vector<std::size_t> pos_;
};

struct ReplicaConfig {
  core::ConsensusParams params;
  std::uint32_t shards = 1;
  /// Max own ops in flight (originated, not yet applied) per shard. Each
  /// shard engine's pool hint is n * window, and its per-origin instance
  /// cap max(65536, window * 1024) (see KvReplica's constructor).
  std::uint32_t window = 64;
  /// Retain per-stream op logs in the KvStore (test prefix checks).
  bool keep_log = false;
  /// Expected op count per origin (index = origin id; missing/0 = none
  /// expected). When set, the replica decides Value::one once every
  /// origin's expected ops are applied — the natural termination signal
  /// both sim::Simulation and net::Cluster already wait on.
  std::vector<std::uint64_t> expected_per_origin;
};

struct ReplicaCounters {
  std::uint64_t ops_submitted = 0;     ///< own ops originated
  std::uint64_t ops_applied = 0;       ///< ops applied (all origins)
  std::uint64_t own_ops_applied = 0;
  std::uint64_t deliveries = 0;        ///< engine deliveries observed
  std::uint64_t deferred_deliveries = 0; ///< delivered ahead of the cursor
  std::uint64_t batches_decoded = 0;
  std::uint64_t msgs_decoded = 0;      ///< RbxMsgs fed to engines
  std::uint64_t decode_errors = 0;     ///< malformed payloads dropped
  std::uint64_t dropped_bad_shard = 0; ///< tag shard out of range
  std::uint64_t dropped_bad_origin = 0;///< origin outside the process space
};

class KvReplica final : public Process {
 public:
  /// Called (own ops only, in per-shard seq order) as ops are applied —
  /// the load generator's latency probe. The op's store write lands at
  /// the end of the current step, so the hook must not read the store.
  using ApplyHook = std::function<void(std::uint32_t shard, std::uint64_t seq,
                                       KvOp op)>;

  KvReplica(ReplicaConfig cfg, std::shared_ptr<OpSource> source);

  void set_apply_hook(ApplyHook hook) {
    step_affinity_.assert_held();  // setup phase, before any step runs
    apply_hook_ = std::move(hook);
  }

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Envelope& env) override;
  void on_null(Context& ctx) override;
  /// Applied-op count, so phase-triggered fault injection can target
  /// "after N ops". Relaxed read of step state from the phase observer —
  /// net::Node republishes it through its own atomic.
  [[nodiscard]] Phase phase() const noexcept override
      RCP_NO_THREAD_SAFETY_ANALYSIS {
    return static_cast<Phase>(counters_.ops_applied);
  }

  // ---- Observers (driver thread, post-run / white-box tests) -----------
  // The reading thread is the step driver (sim mode) or has joined it
  // (net mode): it holds the affinity, and says so.

  [[nodiscard]] const KvStore& store() const noexcept {
    step_affinity_.assert_held();
    return kv_;
  }
  [[nodiscard]] std::uint64_t digest() const noexcept {
    step_affinity_.assert_held();
    return kv_.digest();
  }
  [[nodiscard]] const ReplicaCounters& counters() const noexcept {
    step_affinity_.assert_held();
    return counters_;
  }
  [[nodiscard]] const RbxBatcher::Stats& batcher_stats() const noexcept {
    step_affinity_.assert_held();
    return batcher_.stats();
  }
  /// Aggregated over the per-shard engines.
  [[nodiscard]] ext::RbEngineStats engine_stats() const;
  [[nodiscard]] std::size_t live_instances() const;

 private:
  void pull(Context& ctx, std::uint32_t shard) RCP_REQUIRES(step_affinity_);
  void pull_all(Context& ctx) RCP_REQUIRES(step_affinity_);
  void feed(Context& ctx, ProcessId sender, const ext::RbxMsg& msg)
      RCP_REQUIRES(step_affinity_);
  void on_delivered(Context& ctx, std::uint32_t shard,
                    const ext::RbEngine::Delivery& d)
      RCP_REQUIRES(step_affinity_);
  [[nodiscard]] std::uint32_t stream_of(ProcessId origin,
                                        std::uint32_t shard) const noexcept {
    return origin * cfg_.shards + shard;
  }

  /// "I am the single thread stepping this replica" — sim::Simulation's
  /// run loop or the owning net::Node's event loop. The Process entry
  /// points assert it; everything below it is confined to that thread.
  ThreadAffinity step_affinity_;

  ReplicaConfig cfg_;
  std::shared_ptr<OpSource> source_;
  ProcessId self_ RCP_GUARDED_BY(step_affinity_) = 0;
  /// One engine per shard.
  std::vector<ext::RbEngine> engines_ RCP_GUARDED_BY(step_affinity_);
  RbxBatcher batcher_ RCP_GUARDED_BY(step_affinity_);
  KvStore kv_ RCP_GUARDED_BY(step_affinity_);
  /// next_seq_[shard]: next seq this replica originates on that shard.
  std::vector<std::uint64_t> next_seq_ RCP_GUARDED_BY(step_affinity_);
  /// inflight_[shard]: own ops originated but not yet applied.
  std::vector<std::uint32_t> inflight_ RCP_GUARDED_BY(step_affinity_);
  /// next_apply_[stream]: the FIFO barrier cursor per origin stream.
  /// Out-of-order deliveries stay live (and queryable) in the engine until
  /// the cursor reaches them — there is no replica-side pending buffer.
  std::vector<std::uint64_t> next_apply_ RCP_GUARDED_BY(step_affinity_);
  /// ahead_[stream]: deliveries of the stream past its cursor, not yet
  /// applied. A count, not a buffer: the values stay in the engine.
  std::vector<std::uint32_t> ahead_ RCP_GUARDED_BY(step_affinity_);
  /// Store writes of the ops applied during this on_message, handed to
  /// the KvStore in one apply_all() at its end. Reserved at construction
  /// and only ever cleared.
  std::vector<KvStore::Write> writes_ RCP_GUARDED_BY(step_affinity_);
  /// Termination accounting against cfg_.expected_per_origin.
  std::vector<std::uint64_t> applied_from_ RCP_GUARDED_BY(step_affinity_);
  std::uint32_t origins_remaining_ RCP_GUARDED_BY(step_affinity_) = 0;
  ReplicaCounters counters_ RCP_GUARDED_BY(step_affinity_);
  ApplyHook apply_hook_ RCP_GUARDED_BY(step_affinity_);
};

}  // namespace rcp::service
