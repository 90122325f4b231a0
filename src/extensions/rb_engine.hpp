// Multiplexed reliable broadcast: many concurrent Bracha-broadcast
// instances over one message stream, and the tree's only echo/ready tally.
//
// Every reliable-broadcast user runs on it: the single-shot
// extensions/reliable_broadcast.hpp (one instance), multivalued proposals
// (one per origin), the 1987 Bracha consensus and RB-Ben-Or (one per
// sender, round and sub-round), and the KV service in src/service/ (one
// per block of a stream's queued writes). The engine owns all
// per-instance state: echo/ready tallies with per-sender vote gating, the
// sent-echo/-ready flags, delivery, and (for body instances) the interned
// value bodies, with the thresholds from core::ConsensusParams. For
// k <= floor((n-1)/3) each instance guarantees:
//   consistency — no two correct processes deliver different values for
//     the same (origin, tag);
//   totality    — if any correct process delivers, every correct process
//     eventually delivers;
//   validity    — a correct origin's broadcast is delivered by everyone.
//
// An instance's value is either a 64-bit word (RbxMsg: the consensus
// protocols) or a byte string every message carries in full (RbxBodyMsg:
// a KV block of packed ops, a multivalued proposal). The tallies count
// words either way: a body instance's votes name first-come indices into
// bodies interned with its slot, so equal index means equal bytes, with no
// hashing, and retiring or evicting the slot frees them. One engine
// carries one kind of instance; callers never mix the two handle()s.
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
//  - A body is interned only for a counted vote that names a new value:
//    the origin's one initial, and a new value taking a free echo or ready
//    lane. So an instance holds at most 1 + 2 * lane_count() bodies, and
//    a duplicate or overflowing vote stores nothing.
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
// k + 2 first-come value lanes). A slot's interned bodies sit in one byte
// arena per slot, empty until the slot first holds a body instance and
// kept, cleared, when the slot is reused — nothing is sized for bodies at
// construction. Steady-state handle()/retire_through() is allocation-free
// — the pool only reallocates when the number of live instances outgrows
// capacity, which callers bound with retirement plus the per-origin cap,
// and an arena only when a body outgrows what its slot held before. This
// file is under the
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

/// Broadcast payload word. The consensus protocols use a small alphabet —
/// binary values, Ben-Or's "?" proposal (bottom), Bracha-87's decision
/// proposals (2 + w); a body instance's word is the index of an interned
/// body. Semantics belong to the caller; the engine only tallies
/// equality. Each instance tallies at most
/// `RbEngine::lane_count()` (= k + 2) distinct values per message kind:
/// one counted vote per sender means at most k Byzantine-introduced
/// garbage values per kind, so a correct origin's real value always has a
/// lane.
using RbValue = std::uint64_t;
inline constexpr RbValue kRbValueZero = 0;
inline constexpr RbValue kRbValueOne = 1;
inline constexpr RbValue kRbValueBottom = 2;
/// Upper bound of the *consensus* alphabet — the default decode bound.
/// Callers moving arbitrary 64-bit payloads pass their own bound to
/// decode()/the engine constructor.
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

/// A message of a body instance: the instance's value is `body`, carried
/// in full by the initial, every echo and every ready. `body` views memory
/// the caller owns for the duration of the call.
struct RbxBodyMsg {
  RbxMsg::Kind kind = RbxMsg::Kind::initial;
  ProcessId origin = 0;  ///< whose broadcast this instance carries
  std::uint64_t tag = 0; ///< caller-defined instance id
  std::span<const std::byte> body;
};

/// The KV service's wire format: body messages of many instances packed
/// into one payload, so one network frame carries the traffic of a whole
/// flush interval. Each entry's body is a block of 64-bit words (packed
/// ops), little-endian. Layout:
///   [0x2B][count u32][count x entry]
///   entry = kind u8, origin u32, tag u64, words u16, words x u64
struct RbxBatch {
  /// Distinct from the RbxMsg tag bytes (40..42).
  static constexpr std::uint8_t kTagByte = 43;
  /// Hard cap on entries per batch.
  static constexpr std::size_t kMaxMessages = 4096;
  /// Hard cap on a block's words, whatever bound a decoder is given.
  static constexpr std::size_t kMaxBlockWords = 4096;
  /// Hard cap on a batch's bytes: room for at least seven full-size
  /// entries, and far below the transport's frame-body limit (the service
  /// tests check the margin against net::kMaxFrameBody).
  static constexpr std::size_t kMaxBytes = std::size_t{1} << 18;
  /// Tag byte + count.
  static constexpr std::size_t kHeaderSize = 1 + 4;
  /// kind + origin + tag + words.
  static constexpr std::size_t kEntryHeaderSize = 1 + 4 + 8 + 2;

  /// Encoded size of one entry carrying `body`.
  [[nodiscard]] static constexpr std::size_t entry_size(
      std::span<const std::byte> body) noexcept {
    return kEntryHeaderSize + body.size();
  }

  /// True when `payload` starts with the batch tag byte (cheap dispatch
  /// test; View still fully validates).
  [[nodiscard]] static bool is_batch(const Bytes& payload) noexcept;

  /// Writes the batch header for `count` entries at `out`
  /// (kHeaderSize bytes).
  static void put_header(std::byte* out, std::uint32_t count) noexcept;
  /// Writes `m` as one entry at `out` (entry_size(m.body) bytes). The
  /// body must be 1..kMaxBlockWords whole words.
  static void put_entry(std::byte* out, const RbxBodyMsg& m) noexcept;

  /// Packs `msgs` (1..kMaxMessages of them, at most kMaxBytes in all)
  /// into one payload.
  [[nodiscard]] static Bytes encode(std::span<const RbxBodyMsg> msgs);

  /// The batch decoder: validates a whole payload once, then walks the
  /// entries straight from the payload bytes, with no copy into a buffer.
  /// A bad entry anywhere rejects the batch before any entry is read, so
  /// a caller never feeds part of a Byzantine frame. The view (and every
  /// body it yields) points into `payload`, which must outlive it and stay
  /// unmodified.
  class View {
   public:
    /// Throws DecodeError on a bad tag byte, a payload over kMaxBytes, an
    /// entry count of 0 or over kMaxMessages, an entry kind above ready, a
    /// block of 0 words or more than `max_block_words`, or entries that do
    /// not end exactly at the payload's end.
    View(const Bytes& payload, std::size_t max_block_words);

    [[nodiscard]] std::size_t size() const noexcept { return count_; }

    /// Forward walk over the validated entries.
    class Iterator {
     public:
      [[nodiscard]] RbxBodyMsg operator*() const noexcept;
      Iterator& operator++() noexcept;
      [[nodiscard]] bool operator==(const Iterator&) const noexcept = default;

     private:
      friend class View;
      explicit Iterator(const std::byte* at) noexcept : at_(at) {}
      const std::byte* at_ = nullptr;
    };

    [[nodiscard]] Iterator begin() const noexcept { return Iterator(first_); }
    [[nodiscard]] Iterator end() const noexcept { return Iterator(end_); }

   private:
    const std::byte* first_ = nullptr;
    const std::byte* end_ = nullptr;
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
    RbValue value = kRbValueZero;  ///< body instances: the body's index
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
    /// Body instances: the interned body every message above and the
    /// delivery carry (one input only ever emits its own value). Empty
    /// when nothing was emitted, and in word mode. Valid until the next
    /// call that changes the engine.
    std::span<const std::byte> body;
  };

  /// Starts our own broadcast instance: returns the initial message to
  /// broadcast (the caller sends it; the engine treats our own initial like
  /// any other once it loops back).
  [[nodiscard]] RbxMsg start(ProcessId self, std::uint64_t tag, RbValue value);

  /// Feeds one decoded message received from authenticated `sender`
  /// (sender < n is the transport's identity guarantee).
  [[nodiscard]] Outcome handle(ProcessId sender, const RbxMsg& msg);

  /// The same for a body instance: the body is interned with the
  /// instance's slot (only for a counted vote naming a new value), and the
  /// vote is tallied under its index. Callers bound the body's size.
  [[nodiscard]] Outcome handle(ProcessId sender, const RbxBodyMsg& msg);

  /// The delivered value of a *live* instance (origin, tag), if any.
  /// Retired instances forget their delivery — long-running callers keep
  /// their own applied state, that is the point of retiring.
  [[nodiscard]] std::optional<RbValue> delivered(ProcessId origin,
                                                 std::uint64_t tag) const;

  /// The delivered body of a live body instance (origin, tag), if any;
  /// valid until the next call that changes the engine. The KV service's
  /// FIFO apply path queries this for a block that was delivered ahead of
  /// its cursor once the cursor reaches it, so an out-of-order delivery
  /// needs no caller-side buffer; the block at the cursor it applies from
  /// the Outcome itself.
  [[nodiscard]] std::optional<std::span<const std::byte>> delivered_body(
      ProcessId origin, std::uint64_t tag) const;

  /// Bodies interned by the live instance (origin, tag): at most
  /// 1 + 2 * lane_count(); 0 when no such instance is live.
  [[nodiscard]] std::uint32_t body_count(ProcessId origin,
                                         std::uint64_t tag) const;

  /// Frees the instance (origin, tag) if live and drops all future
  /// traffic for tags <= `tag` of `origin`: the service calls this for
  /// every seq of an applied block, so the live set stays bounded by the
  /// origination window and neither late echo/ready stragglers nor a
  /// Byzantine block overlapping the applied one stays live or comes back.
  /// Callers must retire tags of an origin in
  /// non-decreasing order (the service applies in seq order, so this is
  /// free).
  void retire_through(ProcessId origin, std::uint64_t tag);

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
    /// Bodies interned in bodies_[slot] while live.
    std::uint32_t body_count = 0;
  };

  [[nodiscard]] static std::uint64_t mix_key(ProcessId origin,
                                             std::uint64_t tag) noexcept;
  [[nodiscard]] std::uint32_t find(ProcessId origin,
                                   std::uint64_t tag) const noexcept;
  /// The per-message admission both handle()s share: the retire cursor,
  /// then the slot for (origin, tag). kNil (counted) when dropped.
  [[nodiscard]] std::uint32_t admit(ProcessId sender, RbxMsg::Kind kind,
                                    ProcessId origin, std::uint64_t tag);
  /// The protocol step for `sender`'s vote of `value` of `kind` in the
  /// admitted `slot`: fills `out`, and returns false when the vote was not
  /// counted (a repeat, a forged initial, or no free lane).
  bool step(std::uint32_t slot, ProcessId sender, RbxMsg::Kind kind,
            RbValue value, Outcome& out);
  /// Index of `body` among the slot's interned bodies; kNil if absent.
  [[nodiscard]] std::uint32_t find_body(
      std::uint32_t slot, std::span<const std::byte> body) const noexcept;
  /// Body `index` (< body_count) of the slot.
  [[nodiscard]] std::span<const std::byte> body_at(
      std::uint32_t slot, RbValue index) const noexcept;
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
  /// bodies_[slot]: the slot's interned bodies, each a u32 length and its
  /// bytes, in index order. Grown on first use, kept across reuse.
  std::vector<std::vector<std::byte>> bodies_;
  /// retired_below_[origin] = smallest tag of `origin` still accepted.
  std::vector<std::uint64_t> retired_below_;
  /// Live instances per origin, against max_live_per_origin_.
  std::vector<std::uint32_t> live_per_origin_;
  /// Live unanchored instances per origin, against the sub-cap.
  std::vector<std::uint32_t> unanchored_per_origin_;
  RbEngineStats stats_;
};

}  // namespace rcp::ext
