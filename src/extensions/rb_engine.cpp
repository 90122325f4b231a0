#include "extensions/rb_engine.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "common/error.hpp"

namespace rcp::ext {

namespace {
constexpr std::uint8_t kRbxTagBase = 40;  // 40 initial, 41 echo, 42 ready
constexpr std::uint32_t kMinCapacity = 64;

/// SplitMix64 finalizer: full-avalanche mix for the (origin, tag) hash.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}
}  // namespace

Bytes RbxMsg::encode() const {
  ByteWriter w(kWireSize);
  w.u8(static_cast<std::uint8_t>(kRbxTagBase + static_cast<std::uint8_t>(kind)))
      .u32(origin)
      .u64(tag)
      .u64(value);
  return std::move(w).take();
}

RbxMsg RbxMsg::decode(const Bytes& payload, RbValue max_value) {
  ByteReader r(payload);
  const std::uint8_t tag_byte = r.u8();
  if (tag_byte < kRbxTagBase || tag_byte > kRbxTagBase + 2) {
    throw DecodeError("not a multiplexed reliable-broadcast message");
  }
  RbxMsg msg;
  msg.kind = static_cast<RbxMsg::Kind>(tag_byte - kRbxTagBase);
  msg.origin = r.u32();
  msg.tag = r.u64();
  msg.value = r.u64();
  r.expect_done();
  if (msg.value > max_value) {
    throw DecodeError("payload field out of range");
  }
  return msg;
}

bool RbxBatch::is_batch(const Bytes& payload) noexcept {
  const auto s = payload.span();
  return !s.empty() && static_cast<std::uint8_t>(s[0]) == kTagByte;
}

Bytes RbxBatch::encode(std::span<const RbxMsg> msgs) {
  RCP_INVARIANT(!msgs.empty() && msgs.size() <= kMaxMessages,
                "RbxBatch::encode: 1..kMaxMessages messages");
  ByteWriter w(kHeaderSize + msgs.size() * kEntrySize);
  w.u8(kTagByte).u32(static_cast<std::uint32_t>(msgs.size()));
  for (const RbxMsg& m : msgs) {
    w.u8(static_cast<std::uint8_t>(m.kind)).u32(m.origin).u64(m.tag).u64(
        m.value);
  }
  return std::move(w).take();
}

RbxBatch::View::View(const Bytes& payload, RbValue max_value) {
  ByteReader r(payload);
  if (r.u8() != kTagByte) {
    throw DecodeError("not a reliable-broadcast batch");
  }
  const std::uint32_t count = r.u32();
  if (count == 0 || count > kMaxMessages) {
    throw DecodeError("batch count out of range");
  }
  if (r.remaining() != static_cast<std::size_t>(count) * kEntrySize) {
    throw DecodeError("batch size disagrees with count");
  }
  entries_ = payload.span().data() + kHeaderSize;
  count_ = count;
  for (std::size_t i = 0; i < count_; ++i) {
    const RbxMsg msg = (*this)[i];
    if (msg.kind > RbxMsg::Kind::ready) {
      throw DecodeError("batch entry kind out of range");
    }
    if (msg.value > max_value) {
      throw DecodeError("payload field out of range");
    }
  }
}

RbEngine::RbEngine(core::ConsensusParams params, std::uint32_t capacity_hint,
                   RbValue max_value, std::uint32_t max_live_per_origin)
    : params_(params),
      max_value_(max_value),
      max_live_per_origin_(max_live_per_origin),
      max_unanchored_per_origin_(
          max_live_per_origin == 0
              ? 0
              : std::max(max_live_per_origin / 4, 8u)),
      // A sender gets one counted vote per kind, so at most n distinct
      // values can ever appear; k + 2 covers the fault budget with slack.
      lanes_(std::max(std::min(params.k + 2, params.n), 2u)) {
  const std::uint32_t cap =
      std::bit_ceil(std::max(capacity_hint, kMinCapacity));
  // First: the tally rejects an n its 16-bit counts cannot hold before
  // anything is allocated.
  echo_ = core::VoteTally<RbValue>(cap, params_.n, lanes_);
  ready_ = core::VoteTally<RbValue>(cap, params_.n, lanes_);
  slots_ = std::vector<Instance>(cap);
  bucket_heads_ = std::vector<std::uint32_t>(2ULL * cap, kNil);
  bucket_mask_ = 2ULL * cap - 1;
  retired_below_ = std::vector<std::uint64_t>(params_.n, 0);
  live_per_origin_ = std::vector<std::uint32_t>(params_.n, 0);
  unanchored_per_origin_ = std::vector<std::uint32_t>(params_.n, 0);
  // Thread the whole pool onto the free list, lowest slot first.
  for (std::uint32_t i = cap; i-- > 0;) {
    slots_[i].next = free_head_;
    free_head_ = i;
  }
}

std::uint64_t RbEngine::mix_key(ProcessId origin, std::uint64_t tag) noexcept {
  return mix64(tag ^ (static_cast<std::uint64_t>(origin) * 0x9e3779b97f4a7c15ULL));
}

std::uint32_t RbEngine::find(ProcessId origin,
                             std::uint64_t tag) const noexcept {
  std::uint32_t slot = bucket_heads_[mix_key(origin, tag) & bucket_mask_];
  while (slot != kNil) {
    const Instance& inst = slots_[slot];
    if (inst.origin == origin && inst.tag == tag) {
      return slot;
    }
    slot = inst.next;
  }
  return kNil;
}

bool RbEngine::evict_unanchored(ProcessId origin) {
  if (unanchored_per_origin_[origin] == 0) {
    return false;
  }
  // Cold path: only reachable when an origin sits at its flood cap, i.e.
  // under active attack. A linear sweep keeps the hot path free of any
  // victim bookkeeping.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Instance& inst = slots_[slot];
    if (inst.live && !inst.anchored && !inst.has_delivered &&
        inst.origin == origin) {
      ++stats_.evicted_unanchored;
      release(slot);
      return true;
    }
  }
  // Every unanchored instance has already delivered (the replica still
  // needs those values); nothing is safely evictable.
  return false;
}

std::uint32_t RbEngine::obtain(ProcessId origin, std::uint64_t tag,
                               bool anchored) {
  const std::uint32_t found = find(origin, tag);
  if (found != kNil) {
    Instance& inst = slots_[found];
    if (anchored && !inst.anchored) {
      inst.anchored = true;
      --unanchored_per_origin_[origin];
    }
    return found;
  }
  // First contact with this (origin, tag): the anchor-aware flood caps.
  // Unanchored creations (echo/ready ahead of any initial — phantom
  // candidates) draw from the tight sub-cap and the origin cap; anchored
  // creations (the origin's own initial) may evict an unanchored instance
  // rather than be refused, so phantoms can never wall off a correct
  // origin's seq space.
  if (max_live_per_origin_ != 0) {
    if (!anchored && unanchored_per_origin_[origin] >=
                         max_unanchored_per_origin_) {
      return kNil;
    }
    if (live_per_origin_[origin] >= max_live_per_origin_ &&
        (!anchored || !evict_unanchored(origin))) {
      return kNil;
    }
  }
  if (free_head_ == kNil) {
    grow();
  }
  const std::uint32_t slot = free_head_;
  Instance& inst = slots_[slot];
  free_head_ = inst.next;
  // Field by field: `inst = Instance{}` builds a zeroed record and copies
  // it in (a stack temporary or a rep stos, by compiler) on every new
  // instance.
  inst.origin = origin;
  inst.tag = tag;
  inst.echoed = false;
  inst.has_ready_sent = false;
  inst.has_delivered = false;
  inst.live = true;
  inst.anchored = anchored;
  inst.delivered_value = 0;
  if (!anchored) {
    ++unanchored_per_origin_[origin];
  }
  echo_.reset_rows(slot, 1);
  ready_.reset_rows(slot, 1);
  const std::uint64_t bucket = mix_key(origin, tag) & bucket_mask_;
  inst.next = bucket_heads_[bucket];
  bucket_heads_[bucket] = slot;
  ++live_count_;
  ++live_per_origin_[origin];
  return slot;
}

void RbEngine::release(std::uint32_t slot) noexcept {
  Instance& inst = slots_[slot];
  const std::uint64_t bucket = mix_key(inst.origin, inst.tag) & bucket_mask_;
  std::uint32_t* link = &bucket_heads_[bucket];
  while (*link != slot) {
    link = &slots_[*link].next;
  }
  unlink(link);
}

void RbEngine::unlink(std::uint32_t* link) noexcept {
  const std::uint32_t slot = *link;
  Instance& inst = slots_[slot];
  *link = inst.next;
  inst.live = false;
  inst.next = free_head_;
  free_head_ = slot;
  --live_count_;
  --live_per_origin_[inst.origin];
  if (!inst.anchored) {
    --unanchored_per_origin_[inst.origin];
  }
}

void RbEngine::grow() {
  const std::uint32_t old_cap = static_cast<std::uint32_t>(slots_.size());
  const std::uint32_t new_cap = old_cap * 2;
  ++stats_.grows;
  std::vector<Instance> new_slots(new_cap);
  std::move(slots_.begin(), slots_.end(), new_slots.begin());
  slots_ = std::move(new_slots);
  echo_.grow(new_cap);
  ready_.grow(new_cap);
  // Rebuild the bucket chains and the free list over the doubled pool.
  bucket_heads_ = std::vector<std::uint32_t>(2ULL * new_cap, kNil);
  bucket_mask_ = 2ULL * new_cap - 1;
  free_head_ = kNil;
  for (std::uint32_t i = new_cap; i-- > 0;) {
    Instance& inst = slots_[i];
    if (inst.live) {
      const std::uint64_t bucket = mix_key(inst.origin, inst.tag) & bucket_mask_;
      inst.next = bucket_heads_[bucket];
      bucket_heads_[bucket] = i;
    } else {
      inst.next = free_head_;
      free_head_ = i;
    }
  }
}

RbxMsg RbEngine::start(ProcessId self, std::uint64_t tag, RbValue value) {
  return RbxMsg{
      .kind = RbxMsg::Kind::initial, .origin = self, .tag = tag, .value = value};
}

RbEngine::Outcome RbEngine::handle(ProcessId sender, const RbxMsg& msg) {
  Outcome out;
  ++stats_.handled;
  // The wire is Byzantine input: decode() bounds the value for protocol
  // streams, but the engine re-checks under its own bound and rejects
  // origins outside the process space before they can occupy a slot.
  if (msg.origin >= params_.n) {
    ++stats_.dropped_origin_range;
    return out;
  }
  if (msg.value > max_value_) {
    ++stats_.dropped_value_range;
    return out;
  }
  if (msg.tag < retired_below_[msg.origin]) {
    ++stats_.dropped_retired;
    return out;
  }
  // Only the origin's own initial anchors (identity-checked again below
  // before any state change; a forged initial allocates at most an
  // unanchored phantom-candidate slot, same as any echo).
  const bool anchors =
      msg.kind == RbxMsg::Kind::initial && sender == msg.origin;
  const std::uint32_t slot = obtain(msg.origin, msg.tag, anchors);
  if (slot == kNil) {
    ++stats_.dropped_origin_flood;
    return out;
  }
  Instance& inst = slots_[slot];
  switch (msg.kind) {
    case RbxMsg::Kind::initial: {
      // Authenticated identity: only the origin itself may open its
      // instance, and only its first initial is echoed.
      if (sender != msg.origin || inst.echoed) {
        return out;
      }
      inst.echoed = true;
      out.to_broadcast.push(RbxMsg{.kind = RbxMsg::Kind::echo,
                                   .origin = msg.origin,
                                   .tag = msg.tag,
                                   .value = msg.value});
      return out;
    }
    case RbxMsg::Kind::echo:
    case RbxMsg::Kind::ready: {
      // One counted vote per sender per instance and stage: a correct
      // process sends exactly one echo and at most one ready, so a second
      // (same value or not) is Byzantine noise — and a sender can
      // therefore never claim more than one value lane per stage.
      const bool is_echo = msg.kind == RbxMsg::Kind::echo;
      const core::Vote vote =
          (is_echo ? echo_ : ready_).vote(slot, sender, msg.value);
      if (vote.status == core::VoteStatus::duplicate) {
        ++stats_.dropped_sender_dup;
        return out;
      }
      if (vote.status == core::VoteStatus::overflow) {
        ++stats_.dropped_slot_overflow;
        return out;
      }
      // An echo quorum, or k + 1 readies (one from a correct process),
      // sends our one READY.
      if (!inst.has_ready_sent &&
          vote.count >= (is_echo ? params_.echo_acceptance_threshold()
                                 : params_.ready_amplification_threshold())) {
        inst.has_ready_sent = true;
        out.to_broadcast.push(RbxMsg{.kind = RbxMsg::Kind::ready,
                                     .origin = msg.origin,
                                     .tag = msg.tag,
                                     .value = msg.value});
      }
      if (!is_echo && vote.count >= params_.ready_delivery_threshold() &&
          !inst.has_delivered) {
        inst.has_delivered = true;
        inst.delivered_value = msg.value;
        out.delivered = Delivery{
            .origin = msg.origin, .tag = msg.tag, .value = msg.value};
      }
      return out;
    }
  }
  return out;
}

std::optional<RbValue> RbEngine::delivered(ProcessId origin,
                                           std::uint64_t tag) const {
  const std::uint32_t slot = find(origin, tag);
  if (slot == kNil || !slots_[slot].has_delivered) {
    return std::nullopt;
  }
  return slots_[slot].delivered_value;
}

bool RbEngine::voted(ProcessId sender, ProcessId origin, std::uint64_t tag,
                     RbxMsg::Kind kind) const {
  const std::uint32_t slot = find(origin, tag);
  if (slot == kNil || sender >= params_.n) {
    return false;
  }
  switch (kind) {
    case RbxMsg::Kind::initial:
      return sender == origin && slots_[slot].echoed;
    case RbxMsg::Kind::echo:
      return echo_.voted(slot, sender);
    case RbxMsg::Kind::ready:
      return ready_.voted(slot, sender);
  }
  return false;
}

void RbEngine::retire_through(ProcessId origin, std::uint64_t tag) {
  if (origin >= params_.n) {
    return;
  }
  // One walk of the bucket chain finds the instance and the link that
  // points at it.
  std::uint32_t* link = &bucket_heads_[mix_key(origin, tag) & bucket_mask_];
  while (*link != kNil) {
    const Instance& inst = slots_[*link];
    if (inst.origin == origin && inst.tag == tag) {
      unlink(link);
      break;
    }
    link = &slots_[*link].next;
  }
  retired_below_[origin] = std::max(retired_below_[origin], tag + 1);
}

}  // namespace rcp::ext
