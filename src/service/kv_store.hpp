// The replicated KV state machine: per-stream op logs folded into a flat
// key-value table, with an order-sensitive digest for equivalence proofs.
//
// The service routes every client write to exactly one *origin stream*
// (one (owner replica, shard) pair — see docs/SERVICE.md): the owner is
// the only process that originates ops for its keys, so the per-stream
// apply order (the origin's sequence order, enforced by KvReplica's FIFO
// barrier) fully determines the state. Keys are namespaced per stream for
// the same reason — a Byzantine origin can only ever corrupt its own
// namespace, never race a correct owner on a contested key.
//
// digest() is the whole safety story in one number: it hashes every
// stream's (seq, op) chain plus the final table, so two replicas agree on
// the digest iff they applied identical op sequences stream by stream.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace rcp::service {

namespace detail {
/// SplitMix64 finalizer: the service layer's one hash/digest mixer (probe
/// hash, stream chains, workload routing all share it).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace detail

/// One client write: set `key` to `value` (within the origin stream's
/// namespace).
struct KvOp {
  std::uint32_t key = 0;
  std::uint32_t value = 0;
};

/// Packs an op into the 64-bit broadcast word and back.
[[nodiscard]] constexpr std::uint64_t pack_op(KvOp op) noexcept {
  return static_cast<std::uint64_t>(op.key) |
         (static_cast<std::uint64_t>(op.value) << 32);
}

[[nodiscard]] constexpr KvOp unpack_op(std::uint64_t word) noexcept {
  return KvOp{static_cast<std::uint32_t>(word & 0xffffffffu),
              static_cast<std::uint32_t>(word >> 32)};
}

class KvStore {
 public:
  /// One apply() call's arguments, for apply_all().
  struct Write {
    std::uint32_t stream = 0;
    std::uint64_t seq = 0;
    KvOp op;
  };

  /// `streams` = number of origin streams (replicas x shards).
  /// `keep_log` retains every applied (seq, op) per stream — the
  /// equivalence tests use the logs for prefix checks on Byzantine
  /// streams; load generation leaves it off.
  explicit KvStore(std::uint32_t streams, bool keep_log = false);

  /// Applies op number `seq` of `stream` (the caller guarantees seqs of a
  /// stream arrive in order, each exactly once).
  void apply(std::uint32_t stream, std::uint64_t seq, KvOp op);

  /// Applies `writes` in order, with exactly the effect of one apply() per
  /// write. Faster for a span than the calls one by one: the table grows
  /// at most once, up front, and every write's home slot is prefetched
  /// before the first is applied, so the table's cache misses overlap
  /// instead of queueing one behind the other (docs/PERF.md "KV apply
  /// cost"). Throws, with nothing applied, if any stream is out of range.
  void apply_all(std::span<const Write> writes);

  [[nodiscard]] std::optional<std::uint32_t> get(std::uint32_t stream,
                                                 std::uint32_t key) const;

  /// Number of distinct live keys across all streams.
  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  /// Total ops applied.
  [[nodiscard]] std::uint64_t applied() const noexcept { return applied_; }
  /// Ops applied on one stream.
  [[nodiscard]] std::uint64_t stream_applied(std::uint32_t stream) const {
    return stream_applied_[stream];
  }
  [[nodiscard]] std::uint32_t streams() const noexcept {
    return static_cast<std::uint32_t>(chains_.size());
  }

  /// Order-sensitive chain over one stream's applied (seq, op) sequence.
  [[nodiscard]] std::uint64_t stream_chain(std::uint32_t stream) const {
    return chains_[stream];
  }

  /// Digest over everything: all stream chains plus the final table.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// The retained (seq, packed-op) log of one stream; empty unless
  /// constructed with keep_log.
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
  stream_log(std::uint32_t stream) const {
    return logs_[stream];
  }

 private:
  struct Slot {
    std::uint64_t key = 0;  ///< stream << 32 | client key
    std::uint32_t value = 0;
    bool used = false;
  };

  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept;
  /// Grows the table until `extra` more keys fit under the load limit,
  /// rehashing once.
  void reserve_for(std::size_t extra);

  std::vector<Slot> table_;
  std::size_t used_ = 0;
  std::uint64_t applied_ = 0;
  /// Incremental order-insensitive fold of the live table contents.
  std::uint64_t state_fold_ = 0;
  std::vector<std::uint64_t> chains_;
  std::vector<std::uint64_t> stream_applied_;
  bool keep_log_ = false;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> logs_;
};

}  // namespace rcp::service
