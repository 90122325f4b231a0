// Multiplexed reliable broadcast: many concurrent Bracha-broadcast
// instances over one message stream, and the tree's only echo/ready tally.
//
// Every reliable-broadcast user runs on it: the single-shot
// extensions/reliable_broadcast.hpp (one instance), multivalued proposals
// (one per origin), the 1987 Bracha consensus and RB-Ben-Or (one per
// sender, round and sub-round), and the KV service in src/service/ (one
// per client write). The engine owns all per-instance state: echo/ready
// tallies with per-sender vote gating, the sent-echo/-ready flags, and
// delivery, with the thresholds from core::ConsensusParams. For
// k <= floor((n-1)/3) each instance guarantees:
//   consistency — no two correct processes deliver different values for
//     the same (origin, tag);
//   totality    — if any correct process delivers, every correct process
//     eventually delivers;
//   validity    — a correct origin's broadcast is delivered by everyone.
//
// Byzantine input is bounded at every edge:
//  - One counted vote per sender per instance and per message kind: a
//    correct process sends exactly one echo and at most one ready per
//    instance, so any further echo/ready from the same sender is
//    equivocation and is dropped (dropped_sender_dup). This is what makes
//    the value lanes (below) exhaustion-proof: a sender can claim at most
//    one echo lane and one ready lane, ever.
//  - Echo and ready tallies keep separate first-come value-lane sets,
//    k + 2 lanes each. With at most k Byzantine senders, garbage values
//    occupy at most k lanes per set, so the real value always finds a
//    lane; overflow beyond that (only reachable outside the fault budget,
//    or on a Byzantine origin's own equivocated instance) is dropped and
//    counted (dropped_slot_overflow), never fatal.
//  - Optionally, at most `max_live_per_origin` live instances per origin,
//    enforced anchor-aware. An instance is *anchored* once the origin's
//    own initial has been seen (initials are identity-checked, so only
//    the origin can anchor its tags) or the instance was started locally;
//    instances created by echo/ready ahead of any initial are unanchored
//    — phantom candidates — and draw from a tighter sub-cap (a quarter of
//    the origin cap, at least 8). An arriving initial that finds the
//    origin at its cap evicts an undelivered unanchored instance to claim
//    the slot (evicted_unanchored), so phantom spray can bound memory but
//    can never lock a correct origin out of its own seq space. The trade:
//    votes that arrived before the initial can be lost to eviction under
//    active flood; Bracha's thresholds absorb up to k lost echoes, and
//    post-anchor traffic is never dropped, so an attacker buys at most
//    delay, never divergence.
//
// Storage is flat (docs/PERF.md "Quorum accounting"): instances live in a
// preallocated slot pool indexed by an open hash on (origin, tag), and each
// stage's votes are one core::VoteTally row per slot (gate bit per sender,
// k + 2 first-come value lanes). Steady-state
// handle()/retire_through() is allocation-free — the pool only reallocates
// when the number of live instances outgrows capacity, which callers bound
// with retirement plus the per-origin cap. This file is under the
// [allocation] lint rule and the operator-new counting test in
// tests/extensions/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/params.hpp"
#include "core/quorum.hpp"

namespace rcp::ext {

/// Broadcast payload: a full 64-bit word. The consensus protocols use a
/// small alphabet — binary values, Ben-Or's "?" proposal (bottom),
/// Bracha-87's decision proposals (2 + w) — while the KV service packs a
/// whole (key, value) write into the word. Semantics belong to the caller;
/// the engine only tallies equality. Each instance tallies at most
/// `RbEngine::lane_count()` (= k + 2) distinct values per message kind:
/// one counted vote per sender means at most k Byzantine-introduced
/// garbage values per kind, so a correct origin's real value always has a
/// lane.
using RbValue = std::uint64_t;
inline constexpr RbValue kRbValueZero = 0;
inline constexpr RbValue kRbValueOne = 1;
inline constexpr RbValue kRbValueBottom = 2;
/// Upper bound of the *consensus* alphabet — the default decode bound.
/// Callers moving arbitrary 64-bit payloads (the KV service) pass their own
/// bound to decode()/the engine constructor.
inline constexpr RbValue kMaxRbValue = 3;
/// "Any 64-bit word is a legal payload" bound for data-carrying streams.
inline constexpr RbValue kRbValueAny = ~static_cast<RbValue>(0);

[[nodiscard]] constexpr RbValue to_rb_value(Value v) noexcept {
  return static_cast<RbValue>(v);
}

/// Wire message of the multiplexed broadcast.
struct RbxMsg {
  enum class Kind : std::uint8_t { initial = 0, echo = 1, ready = 2 };
  Kind kind = Kind::initial;
  ProcessId origin = 0;  ///< whose broadcast this instance carries
  std::uint64_t tag = 0; ///< caller-defined instance id (round, shard|seq...)
  RbValue value = kRbValueZero;

  /// Encoded size: tag byte + origin + tag + value.
  static constexpr std::size_t kWireSize = 1 + 4 + 8 + 8;

  [[nodiscard]] Bytes encode() const;
  /// Decodes and validates one message. Rejects (DecodeError) short or
  /// over-long payloads, unknown kind bytes, and values above `max_value` —
  /// the wire is Byzantine input and is never trusted.
  [[nodiscard]] static RbxMsg decode(const Bytes& payload,
                                     RbValue max_value = kMaxRbValue);
};

/// Cross-instance frame coalescing: many RbxMsgs of *different* instances
/// packed into one payload, so one network frame carries the echo/ready
/// traffic of a whole flush interval. Wire layout:
///   [0x2B][count u32][count x (kind u8, origin u32, tag u64, value u64)]
struct RbxBatch {
  /// Distinct from the RbxMsg tag bytes (40..42) so both framings coexist
  /// on one stream.
  static constexpr std::uint8_t kTagByte = 43;
  /// Hard cap on messages per batch; with 21-byte entries this keeps every
  /// batch far below the transport's 1 MiB frame-body limit.
  static constexpr std::size_t kMaxMessages = 4096;
  /// Tag byte + count.
  static constexpr std::size_t kHeaderSize = 1 + 4;
  /// kind + origin + tag + value.
  static constexpr std::size_t kEntrySize = 1 + 4 + 8 + 8;

  /// True when `payload` starts with the batch tag byte (cheap dispatch
  /// test; View still fully validates).
  [[nodiscard]] static bool is_batch(const Bytes& payload) noexcept;

  /// Packs `msgs` (1..kMaxMessages of them) into one payload.
  [[nodiscard]] static Bytes encode(std::span<const RbxMsg> msgs);

  /// The batch decoder: validates a whole payload once, then reads each
  /// entry straight from the payload bytes, with no copy into a buffer.
  /// A bad entry anywhere rejects the batch before any entry is read, so
  /// a caller never feeds part of a Byzantine frame. The view points into
  /// `payload`, which must outlive it and stay unmodified.
  class View {
   public:
    /// Throws DecodeError on a bad tag byte, an empty/oversized count, a
    /// count that disagrees with the payload size, or any entry
    /// RbxMsg::decode would reject (kind byte, value above `max_value`).
    explicit View(const Bytes& payload, RbValue max_value = kMaxRbValue);

    [[nodiscard]] std::size_t size() const noexcept { return count_; }

    /// Entry `i` (< size()).
    [[nodiscard]] RbxMsg operator[](std::size_t i) const noexcept {
      const std::byte* e = entries_ + i * kEntrySize;
      return RbxMsg{.kind = static_cast<RbxMsg::Kind>(e[0]),
                    .origin = load_le<std::uint32_t>(e + 1),
                    .tag = load_le<std::uint64_t>(e + 5),
                    .value = load_le<std::uint64_t>(e + 13)};
    }

   private:
    const std::byte* entries_ = nullptr;
    std::size_t count_ = 0;
  };
};

/// Drop counters: Byzantine and stale traffic the engine absorbed without
/// state change. Observability only — never protocol input.
struct RbEngineStats {
  std::uint64_t handled = 0;               ///< messages fed to handle()
  std::uint64_t dropped_origin_range = 0;  ///< origin >= n (no such process)
  std::uint64_t dropped_value_range = 0;   ///< value above the engine bound
  std::uint64_t dropped_retired = 0;       ///< tag at/below a retire cursor
  std::uint64_t dropped_sender_dup = 0;    ///< second echo/ready of a sender
                                           ///< in one instance (equivocation
                                           ///< or duplicate)
  std::uint64_t dropped_slot_overflow = 0; ///< > lane_count() distinct values
  std::uint64_t dropped_origin_flood = 0;  ///< per-origin live-instance cap
  std::uint64_t evicted_unanchored = 0;    ///< phantom evicted for an initial
  std::uint64_t grows = 0;                 ///< instance-pool reallocations
};

class RbEngine {
 public:
  /// `capacity_hint` presizes the instance pool (rounded up to a power of
  /// two, minimum 64); the pool doubles when live instances outgrow it.
  /// `max_value` bounds accepted payload values (kRbValueAny = no bound).
  /// `max_live_per_origin` (0 = unbounded) caps the live instances any one
  /// origin's tags may occupy, anchor-aware (see the file comment): the
  /// bound against phantom-tag floods. Size it well above the origin's
  /// real origination window — it is a DoS backstop, not flow control;
  /// in-cap protocol traffic is never dropped. Requires 1 <= n <= 65535
  /// (VoteTally counts are 16-bit).
  explicit RbEngine(core::ConsensusParams params,
                    std::uint32_t capacity_hint = 0,
                    RbValue max_value = kMaxRbValue,
                    std::uint32_t max_live_per_origin = 0);

  struct Delivery {
    ProcessId origin = 0;
    std::uint64_t tag = 0;
    RbValue value = kRbValueZero;
  };

  /// Fixed-capacity list of the messages one handle() call can emit (at
  /// most an echo plus a ready) — keeps the hot path allocation-free while
  /// preserving the vector-ish surface protocol code iterates over.
  class MsgList {
   public:
    /// Leaves both slots unwritten: push() writes a slot before count_
    /// covers it. handle() returns a MsgList for every message, dropped
    /// ones included, and zero-filling the slots was a rep stos on every
    /// call (docs/PERF.md "Reliable-broadcast ingest cost").
    MsgList() noexcept {}

    [[nodiscard]] const RbxMsg* begin() const noexcept { return msgs_; }
    [[nodiscard]] const RbxMsg* end() const noexcept {
      return msgs_ + count_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] const RbxMsg& operator[](std::size_t i) const noexcept {
      return msgs_[i];
    }

   private:
    friend class RbEngine;
    void push(const RbxMsg& m) noexcept { msgs_[count_++] = m; }
    union {
      RbxMsg msgs_[2];
    };
    std::uint8_t count_ = 0;
  };

  struct Outcome {
    /// Messages this process must now broadcast (echo/ready transitions).
    MsgList to_broadcast;
    /// Set when this input completed a delivery.
    std::optional<Delivery> delivered;
  };

  /// Starts our own broadcast instance: returns the initial message to
  /// broadcast (the caller sends it; the engine treats our own initial like
  /// any other once it loops back).
  [[nodiscard]] RbxMsg start(ProcessId self, std::uint64_t tag, RbValue value);

  /// Feeds one decoded message received from authenticated `sender`
  /// (sender < n is the transport's identity guarantee).
  [[nodiscard]] Outcome handle(ProcessId sender, const RbxMsg& msg);

  /// The delivered value of a *live* instance (origin, tag), if any.
  /// Retired instances forget their delivery — long-running callers keep
  /// their own applied state, that is the point of retiring. The KV
  /// service's FIFO apply path queries this for a delivery that arrived
  /// ahead of its cursor once the cursor reaches it, so an out-of-order
  /// delivery needs no caller-side buffer; the delivery at the cursor it
  /// applies from the Delivery itself.
  [[nodiscard]] std::optional<RbValue> delivered(ProcessId origin,
                                                 std::uint64_t tag) const;

  /// Frees the instance (origin, tag) if live and drops all current and
  /// future traffic for tags <= `tag` of `origin`: the service calls this
  /// after applying a delivered op, so the live set stays bounded by the
  /// origination window and late echo/ready stragglers cannot resurrect an
  /// applied instance. Callers must retire tags of an origin in
  /// non-decreasing order (the service applies in seq order, so this is
  /// free).
  void retire_through(ProcessId origin, std::uint64_t tag);

  /// True when the live instance (origin, tag) already counted `sender`'s
  /// vote of `kind` (for an initial: the origin's first one), so handle()
  /// would drop a repeat. ProposalRb checks it before storing a body.
  [[nodiscard]] bool voted(ProcessId sender, ProcessId origin,
                           std::uint64_t tag, RbxMsg::Kind kind) const;

  /// Count of live instances (observability / leak checks).
  [[nodiscard]] std::size_t instance_count() const noexcept {
    return live_count_;
  }

  /// Current instance-pool capacity (observability for growth tests).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Distinct values tallied per instance per message kind: k + 2.
  [[nodiscard]] std::uint32_t lane_count() const noexcept { return lanes_; }

  [[nodiscard]] const RbEngineStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Instance {
    ProcessId origin = 0;
    std::uint64_t tag = 0;
    bool echoed = false;
    bool has_ready_sent = false;
    bool has_delivered = false;
    bool live = false;
    /// True once the origin's own initial was seen (or started locally):
    /// the instance is real protocol work, not a phantom candidate.
    bool anchored = false;
    RbValue delivered_value = 0;
    /// Bucket chain link while live; free-list link while free.
    std::uint32_t next = kNil;
  };

  [[nodiscard]] static std::uint64_t mix_key(ProcessId origin,
                                             std::uint64_t tag) noexcept;
  [[nodiscard]] std::uint32_t find(ProcessId origin,
                                   std::uint64_t tag) const noexcept;
  /// Finds or allocates the slot for (origin, tag); grows the pool when
  /// the free list is empty. `anchored` marks creation by the origin's
  /// own initial (promotes an existing unanchored instance, and may evict
  /// one to stay in cap); kNil when the per-origin caps refuse the slot.
  [[nodiscard]] std::uint32_t obtain(ProcessId origin, std::uint64_t tag,
                                     bool anchored);
  /// Releases the first undelivered unanchored live instance of `origin`
  /// to make room for an anchored one; false when none exists.
  [[nodiscard]] bool evict_unanchored(ProcessId origin);
  /// Unlinks `slot` from its bucket and pushes it on the free list.
  void release(std::uint32_t slot) noexcept;
  /// Frees the live slot `*link` names, where `link` is the bucket-chain
  /// link (a bucket head or an Instance::next) that points at it.
  void unlink(std::uint32_t* link) noexcept;
  void grow();

  core::ConsensusParams params_;
  RbValue max_value_;
  std::uint32_t max_live_per_origin_ = 0;
  /// Sub-cap on unanchored (pre-initial) instances per origin.
  std::uint32_t max_unanchored_per_origin_ = 0;
  std::uint32_t lanes_ = 0;
  std::vector<Instance> slots_;
  /// Open hash: bucket_heads_[hash & mask] -> slot chain via Instance::next.
  std::vector<std::uint32_t> bucket_heads_;
  std::uint64_t bucket_mask_ = 0;
  std::uint32_t free_head_ = kNil;
  std::size_t live_count_ = 0;
  /// Echo and ready votes, row = slot: one counted vote per sender per
  /// instance per stage (the gate that makes the lanes exhaustion-proof)
  /// and lanes_ first-come value lanes.
  core::VoteTally<RbValue> echo_;
  core::VoteTally<RbValue> ready_;
  /// retired_below_[origin] = smallest tag of `origin` still accepted.
  std::vector<std::uint64_t> retired_below_;
  /// Live instances per origin, against max_live_per_origin_.
  std::vector<std::uint32_t> live_per_origin_;
  /// Live unanchored instances per origin, against the sub-cap.
  std::vector<std::uint32_t> unanchored_per_origin_;
  RbEngineStats stats_;
};

}  // namespace rcp::ext
