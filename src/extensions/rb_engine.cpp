#include "extensions/rb_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
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

void RbxBatch::put_header(std::byte* out, std::uint32_t count) noexcept {
  out[0] = std::byte{kTagByte};
  store_le(out + 1, count);
}

void RbxBatch::put_entry(std::byte* out, const RbxBodyMsg& m) noexcept {
  out[0] = static_cast<std::byte>(m.kind);
  store_le(out + 1, m.origin);
  store_le(out + 5, m.tag);
  store_le(out + 13, static_cast<std::uint16_t>(m.body.size() / 8));
  std::memcpy(out + kEntryHeaderSize, m.body.data(), m.body.size());
}

Bytes RbxBatch::encode(std::span<const RbxBodyMsg> msgs) {
  RCP_INVARIANT(!msgs.empty() && msgs.size() <= kMaxMessages,
                "RbxBatch::encode: 1..kMaxMessages messages");
  std::size_t size = kHeaderSize;
  for (const RbxBodyMsg& m : msgs) {
    RCP_INVARIANT(!m.body.empty() && m.body.size() % 8 == 0 &&
                      m.body.size() / 8 <= kMaxBlockWords,
                  "RbxBatch::encode: 1..kMaxBlockWords whole words");
    size += entry_size(m.body);
  }
  RCP_INVARIANT(size <= kMaxBytes, "RbxBatch::encode: at most kMaxBytes");
  Bytes out(size);
  std::byte* at = out.data();
  put_header(at, static_cast<std::uint32_t>(msgs.size()));
  at += kHeaderSize;
  for (const RbxBodyMsg& m : msgs) {
    put_entry(at, m);
    at += entry_size(m.body);
  }
  return out;
}

RbxBatch::View::View(const Bytes& payload, std::size_t max_block_words) {
  RCP_INVARIANT(max_block_words <= kMaxBlockWords,
                "RbxBatch::View: block bound above kMaxBlockWords");
  const std::span<const std::byte> bytes = payload.span();
  if (bytes.size() > kMaxBytes) {
    throw DecodeError("batch over the size cap");
  }
  ByteReader r(bytes);
  if (r.u8() != kTagByte) {
    throw DecodeError("not a reliable-broadcast batch");
  }
  const std::uint32_t count = r.u32();
  if (count == 0 || count > kMaxMessages) {
    throw DecodeError("batch count out of range");
  }
  // Walk every entry's header before any is read: a bad kind, a block
  // size out of range or a length that overruns the payload anywhere
  // rejects the whole batch.
  const std::byte* at = bytes.data() + kHeaderSize;
  const std::byte* const end = bytes.data() + bytes.size();
  for (std::uint32_t i = 0; i < count; ++i) {
    if (static_cast<std::size_t>(end - at) < kEntryHeaderSize) {
      throw DecodeError("batch entry truncated");
    }
    if (static_cast<std::uint8_t>(at[0]) >
        static_cast<std::uint8_t>(RbxMsg::Kind::ready)) {
      throw DecodeError("batch entry kind out of range");
    }
    const std::size_t words = load_le<std::uint16_t>(at + 13);
    if (words == 0 || words > max_block_words) {
      throw DecodeError("batch entry block size out of range");
    }
    if (static_cast<std::size_t>(end - at) < kEntryHeaderSize + words * 8) {
      throw DecodeError("batch entry truncated");
    }
    at += kEntryHeaderSize + words * 8;
  }
  if (at != end) {
    throw DecodeError("batch size disagrees with count");
  }
  first_ = bytes.data() + kHeaderSize;
  end_ = end;
  count_ = count;
}

RbxBodyMsg RbxBatch::View::Iterator::operator*() const noexcept {
  const std::size_t words = load_le<std::uint16_t>(at_ + 13);
  return RbxBodyMsg{.kind = static_cast<RbxMsg::Kind>(at_[0]),
                    .origin = load_le<std::uint32_t>(at_ + 1),
                    .tag = load_le<std::uint64_t>(at_ + 5),
                    .body = {at_ + kEntryHeaderSize, words * 8}};
}

RbxBatch::View::Iterator& RbxBatch::View::Iterator::operator++() noexcept {
  at_ += kEntryHeaderSize + std::size_t{load_le<std::uint16_t>(at_ + 13)} * 8;
  return *this;
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
  bodies_ = std::vector<std::vector<std::byte>>(cap);
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
  inst.body_count = 0;
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
  bodies_.resize(new_cap);  // rcp-lint: allow(hot-alloc) cold growth
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

std::uint32_t RbEngine::admit(ProcessId sender, RbxMsg::Kind kind,
                              ProcessId origin, std::uint64_t tag) {
  if (tag < retired_below_[origin]) {
    ++stats_.dropped_retired;
    return kNil;
  }
  // Only the origin's own initial anchors (identity-checked again in
  // step() before any state change; a forged initial allocates at most an
  // unanchored phantom-candidate slot, same as any echo).
  const bool anchors = kind == RbxMsg::Kind::initial && sender == origin;
  const std::uint32_t slot = obtain(origin, tag, anchors);
  if (slot == kNil) {
    ++stats_.dropped_origin_flood;
  }
  return slot;
}

bool RbEngine::step(std::uint32_t slot, ProcessId sender, RbxMsg::Kind kind,
                    RbValue value, Outcome& out) {
  Instance& inst = slots_[slot];
  switch (kind) {
    case RbxMsg::Kind::initial: {
      // Authenticated identity: only the origin itself may open its
      // instance, and only its first initial is echoed.
      if (sender != inst.origin || inst.echoed) {
        return false;
      }
      inst.echoed = true;
      out.to_broadcast.push(RbxMsg{.kind = RbxMsg::Kind::echo,
                                   .origin = inst.origin,
                                   .tag = inst.tag,
                                   .value = value});
      return true;
    }
    case RbxMsg::Kind::echo:
    case RbxMsg::Kind::ready: {
      // One counted vote per sender per instance and stage: a correct
      // process sends exactly one echo and at most one ready, so a second
      // (same value or not) is Byzantine noise — and a sender can
      // therefore never claim more than one value lane per stage.
      const bool is_echo = kind == RbxMsg::Kind::echo;
      const core::Vote vote =
          (is_echo ? echo_ : ready_).vote(slot, sender, value);
      if (vote.status == core::VoteStatus::duplicate) {
        ++stats_.dropped_sender_dup;
        return false;
      }
      if (vote.status == core::VoteStatus::overflow) {
        ++stats_.dropped_slot_overflow;
        return false;
      }
      // An echo quorum, or k + 1 readies (one from a correct process),
      // sends our one READY.
      if (!inst.has_ready_sent &&
          vote.count >= (is_echo ? params_.echo_acceptance_threshold()
                                 : params_.ready_amplification_threshold())) {
        inst.has_ready_sent = true;
        out.to_broadcast.push(RbxMsg{.kind = RbxMsg::Kind::ready,
                                     .origin = inst.origin,
                                     .tag = inst.tag,
                                     .value = value});
      }
      if (!is_echo && vote.count >= params_.ready_delivery_threshold() &&
          !inst.has_delivered) {
        inst.has_delivered = true;
        inst.delivered_value = value;
        out.delivered =
            Delivery{.origin = inst.origin, .tag = inst.tag, .value = value};
      }
      return true;
    }
  }
  return false;
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
  const std::uint32_t slot = admit(sender, msg.kind, msg.origin, msg.tag);
  if (slot != kNil) {
    (void)step(slot, sender, msg.kind, msg.value, out);
  }
  return out;
}

RbEngine::Outcome RbEngine::handle(ProcessId sender, const RbxBodyMsg& msg) {
  Outcome out;
  ++stats_.handled;
  if (msg.origin >= params_.n) {
    ++stats_.dropped_origin_range;
    return out;
  }
  const std::uint32_t slot = admit(sender, msg.kind, msg.origin, msg.tag);
  if (slot == kNil) {
    return out;
  }
  // A body seen before votes under its index; a new one votes under the
  // next index and is stored only if that vote counts, so a repeat, a
  // forged initial or a vote with no free lane stores nothing.
  const std::uint32_t known = find_body(slot, msg.body);
  Instance& inst = slots_[slot];
  const RbValue value = known != kNil ? known : inst.body_count;
  if (step(slot, sender, msg.kind, value, out) && known == kNil) {
    std::vector<std::byte>& arena = bodies_[slot];
    if (inst.body_count == 0) {
      arena.clear();
    }
    const std::size_t at = arena.size();
    // One body per counted new value; the arena keeps its capacity across
    // slot reuse, so a warm slot stores without allocating.
    arena.resize(at + 4 + msg.body.size());  // rcp-lint: allow(hot-alloc) see above
    store_le(arena.data() + at, static_cast<std::uint32_t>(msg.body.size()));
    std::memcpy(arena.data() + at + 4, msg.body.data(), msg.body.size());
    ++inst.body_count;
  }
  if (!out.to_broadcast.empty() || out.delivered.has_value()) {
    out.body = body_at(slot, value);
  }
  return out;
}

std::uint32_t RbEngine::find_body(
    std::uint32_t slot, std::span<const std::byte> body) const noexcept {
  const std::byte* at = bodies_[slot].data();
  for (std::uint32_t i = 0; i < slots_[slot].body_count; ++i) {
    const std::uint32_t len = load_le<std::uint32_t>(at);
    // memcmp, not std::equal: std::byte is no integral type, so the
    // standard algorithm compares it one byte at a time.
    if (len == body.size() &&
        (len == 0 || std::memcmp(body.data(), at + 4, len) == 0)) {
      return i;
    }
    at += 4 + len;
  }
  return kNil;
}

std::span<const std::byte> RbEngine::body_at(std::uint32_t slot,
                                             RbValue index) const noexcept {
  const std::byte* at = bodies_[slot].data();
  for (RbValue i = 0; i < index; ++i) {
    at += 4 + load_le<std::uint32_t>(at);
  }
  return {at + 4, load_le<std::uint32_t>(at)};
}

std::optional<RbValue> RbEngine::delivered(ProcessId origin,
                                           std::uint64_t tag) const {
  const std::uint32_t slot = find(origin, tag);
  if (slot == kNil || !slots_[slot].has_delivered) {
    return std::nullopt;
  }
  return slots_[slot].delivered_value;
}

std::optional<std::span<const std::byte>> RbEngine::delivered_body(
    ProcessId origin, std::uint64_t tag) const {
  const std::uint32_t slot = find(origin, tag);
  if (slot == kNil || !slots_[slot].has_delivered) {
    return std::nullopt;
  }
  return body_at(slot, slots_[slot].delivered_value);
}

std::uint32_t RbEngine::body_count(ProcessId origin,
                                   std::uint64_t tag) const {
  const std::uint32_t slot = find(origin, tag);
  return slot == kNil ? 0 : slots_[slot].body_count;
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
