#include "service/adversary.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "service/kv_store.hpp"
#include "service/replica.hpp"  // tag layout (make_tag)

namespace rcp::service {

namespace {

using ext::RbxBatch;
using ext::RbxBodyMsg;
using ext::RbxMsg;

/// Packs `words` little-endian, the way a replica packs a block's ops.
std::vector<std::byte> block_of(std::span<const std::uint64_t> words) {
  std::vector<std::byte> out(words.size() * 8);
  for (std::size_t i = 0; i < words.size(); ++i) {
    store_le(out.data() + i * 8, words[i]);
  }
  return out;
}

/// `count` random words.
std::vector<std::byte> random_block(Rng& rng, std::size_t count) {
  std::vector<std::uint64_t> words(count);
  for (std::uint64_t& w : words) {
    w = rng.next();
  }
  return block_of(words);
}

/// Honest mesh participation: runs every well-formed entry of `env`
/// through `engine` (skipping origin `skip`, if it is a process id) and
/// broadcasts the replies as one batch while the send budget lasts.
void participate(Context& ctx, const Envelope& env, ext::RbEngine& engine,
                 RbxBatcher& batcher, std::uint64_t& sends_left,
                 ProcessId skip) {
  try {
    const RbxBatch::View batch(env.payload, RbxBatch::kMaxBlockWords);
    for (const RbxBodyMsg& msg : batch) {
      if (msg.origin == skip) {
        continue;
      }
      const ext::RbEngine::Outcome out = engine.handle(env.sender, msg);
      for (const RbxMsg& reply : out.to_broadcast) {
        if (sends_left < ctx.n()) {
          break;
        }
        sends_left -= ctx.n();
        batcher.queue_broadcast(ctx, RbxBodyMsg{.kind = reply.kind,
                                                .origin = reply.origin,
                                                .tag = reply.tag,
                                                .body = out.body});
      }
    }
  } catch (const DecodeError&) {
    // garbage from fellow adversaries
  }
  batcher.flush(ctx);
}

constexpr ProcessId kNoOrigin = ~ProcessId{0};

}  // namespace

KvEquivocator::KvEquivocator(KvAdversaryConfig cfg)
    : cfg_(cfg), engine_(cfg.params), sends_left_(cfg.send_budget) {}

void KvEquivocator::on_start(Context& ctx) {
  // Per shard, ops_per_shard blocks of 1 to 3 ops, each shown two-faced:
  // block A to even peers, block B to odd ones, under one tag. B differs
  // from A in its values for even j, and has one op more for odd j. The
  // next block's tag follows A.
  for (std::uint32_t shard = 0; shard < cfg_.shards; ++shard) {
    std::uint64_t seq = 0;
    for (std::uint32_t j = 0; j < cfg_.ops_per_shard; ++j) {
      const std::size_t len = 1 + j % 3;
      std::vector<std::uint64_t> a;
      std::vector<std::uint64_t> b;
      for (std::size_t i = 0; i < len; ++i) {
        const auto key = static_cast<std::uint32_t>(2 * (seq + i));
        a.push_back(pack_op(KvOp{key, 0xAAAA0000u + shard}));
        b.push_back(pack_op(KvOp{j % 2 == 0 ? key + 1 : key,
                                 (j % 2 == 0 ? 0xBBBB0000u : 0xAAAA0000u) +
                                     shard}));
      }
      if (j % 2 == 1) {
        b.push_back(pack_op(KvOp{0xFFFFu, 0xBBBB0000u + shard}));
      }
      const std::vector<std::byte> block_a = block_of(a);
      const std::vector<std::byte> block_b = block_of(b);
      const std::uint64_t tag = make_tag(shard, seq);
      for (ProcessId q = 0; q < ctx.n(); ++q) {
        if (q == ctx.self() || sends_left_ < 2) {
          continue;
        }
        sends_left_ -= 2;
        const std::span<const std::byte> told = q % 2 == 0 ? block_a : block_b;
        // The initial, and a two-faced echo reinforcing the same story.
        const std::array<RbxBodyMsg, 2> msgs = {
            RbxBodyMsg{.kind = RbxMsg::Kind::initial,
                       .origin = ctx.self(),
                       .tag = tag,
                       .body = told},
            RbxBodyMsg{.kind = RbxMsg::Kind::echo,
                       .origin = ctx.self(),
                       .tag = tag,
                       .body = told}};
        ctx.send(q, RbxBatch::encode(msgs));
      }
      seq += len;
    }
  }
}

void KvEquivocator::on_message(Context& ctx, const Envelope& env) {
  // Participate honestly in everyone else's instances so the attack is
  // pure equivocation, not a liveness stall — but never help (or fix)
  // our own split instances.
  participate(ctx, env, engine_, batcher_, sends_left_, ctx.self());
}

KvBabbler::KvBabbler(KvAdversaryConfig cfg)
    : cfg_(cfg), engine_(cfg.params), sends_left_(cfg.send_budget) {}

void KvBabbler::babble(Context& ctx) {
  if (sends_left_ < ctx.n()) {
    return;
  }
  sends_left_ -= ctx.n();
  Rng& rng = ctx.rng();
  const auto entry = [&](RbxMsg::Kind kind, ProcessId origin,
                         std::uint64_t tag,
                         std::span<const std::byte> body) {
    const std::array<RbxBodyMsg, 1> msgs = {RbxBodyMsg{
        .kind = kind, .origin = origin, .tag = tag, .body = body}};
    return RbxBatch::encode(msgs);
  };
  const auto vote_kind = [&] {
    return rng.bernoulli(0.5) ? RbxMsg::Kind::echo : RbxMsg::Kind::ready;
  };
  switch (rng.below(7)) {
    case 0: {  // raw noise, arbitrary length
      ByteWriter w(16);
      const std::uint32_t len = static_cast<std::uint32_t>(rng.below(33));
      for (std::uint32_t i = 0; i < len; ++i) {
        w.u8(static_cast<std::uint8_t>(rng.below(256)));
      }
      ctx.broadcast(std::move(w).take());
      return;
    }
    case 1: {  // batch header whose count disagrees with the body
      ByteWriter w(8);
      w.u8(RbxBatch::kTagByte)
          .u32(static_cast<std::uint32_t>(1 + rng.below(64)))
          .u8(0);
      ctx.broadcast(std::move(w).take());
      return;
    }
    case 2: {  // well-formed entry, out-of-range kind byte
      const std::vector<std::byte> body = random_block(rng, 1);
      Bytes frame = entry(RbxMsg::Kind::echo,
                          static_cast<ProcessId>(rng.below(ctx.n())),
                          rng.next(), body);
      frame[RbxBatch::kHeaderSize] =
          static_cast<std::byte>(3 + rng.below(253));
      ctx.broadcast(frame);
      return;
    }
    case 3: {  // echo/ready for a phantom instance, maybe phantom origin
      const std::vector<std::byte> body = random_block(rng, 1 + rng.below(2));
      ctx.broadcast(entry(
          vote_kind(), static_cast<ProcessId>(rng.below(2ULL * ctx.n())),
          make_tag(static_cast<std::uint32_t>(rng.below(4 * cfg_.shards)),
                   rng.below(1u << 20)),
          body));
      return;
    }
    case 4: {  // a valid one-entry batch, truncated
      const std::vector<std::byte> body = random_block(rng, 2);
      Bytes frame = entry(vote_kind(), 0, 0, body);
      frame.resize(rng.below(frame.size()));
      ctx.broadcast(frame);
      return;
    }
    case 5: {  // an empty block, or one past the window
      const std::size_t words =
          rng.bernoulli(0.5)
              ? 0
              : std::min<std::size_t>(cfg_.window + 1 + rng.below(8),
                                      RbxBatch::kMaxBlockWords);
      const std::vector<std::byte> body =
          random_block(rng, std::max<std::size_t>(words, 1));
      Bytes frame =
          entry(vote_kind(), static_cast<ProcessId>(rng.below(ctx.n())),
                make_tag(0, 0), body);
      if (words == 0) {
        // Claim zero words; the one word left over trails the entry.
        store_le(frame.data() + RbxBatch::kHeaderSize + 13, std::uint16_t{0});
      }
      ctx.broadcast(frame);
      return;
    }
    default: {  // a vote for a block overlapping a correct origin's blocks
      const std::vector<std::byte> body = random_block(rng, 1 + rng.below(3));
      ctx.broadcast(
          entry(vote_kind(), static_cast<ProcessId>(rng.below(ctx.n())),
                make_tag(static_cast<std::uint32_t>(rng.below(cfg_.shards)),
                         rng.below(64)),
                body));
      return;
    }
  }
}

void KvBabbler::on_start(Context& ctx) {
  babble(ctx);
  babble(ctx);
}

void KvBabbler::on_message(Context& ctx, const Envelope& env) {
  // Stay a useful mesh citizen (echo/ready for real instances) so the run
  // terminates, then spray garbage at a bounded rate.
  participate(ctx, env, engine_, batcher_, sends_left_, kNoOrigin);
  if (ctx.rng().bernoulli(0.25)) {
    babble(ctx);
  }
}

KvLaneJammer::KvLaneJammer(KvAdversaryConfig cfg)
    : cfg_(cfg), engine_(cfg.params), sends_left_(cfg.send_budget) {}

void KvLaneJammer::on_start(Context& ctx) {
  // Poison the victims' upcoming instances before any real traffic: one
  // garbage echo and one garbage ready per (victim, shard, seq), with
  // blocks keyed off our own id so multiple jammers burn *distinct*
  // lanes. Without the per-sender vote gate this would fill every value
  // lane of a correct origin's instance; with it the damage is one echo
  // lane and one ready lane per jammer.
  for (std::uint32_t shard = 0; shard < cfg_.shards; ++shard) {
    for (std::uint64_t seq = 0; seq < cfg_.ops_per_shard; ++seq) {
      for (ProcessId victim = 0; victim < cfg_.victims; ++victim) {
        if (sends_left_ < 2ULL * ctx.n()) {
          return;
        }
        sends_left_ -= 2ULL * ctx.n();
        const std::uint64_t tag = make_tag(shard, seq);
        const std::uint64_t garbage =
            0xDEAD0000'00000000ULL |
            (static_cast<std::uint64_t>(ctx.self()) << 32) | (seq << 8) |
            victim;
        const std::array<std::uint64_t, 1> echo_word = {garbage};
        const std::array<std::uint64_t, 1> ready_word = {garbage + 1};
        const std::vector<std::byte> echo_block = block_of(echo_word);
        const std::vector<std::byte> ready_block = block_of(ready_word);
        const std::array<RbxBodyMsg, 2> msgs = {
            RbxBodyMsg{.kind = RbxMsg::Kind::echo,
                       .origin = victim,
                       .tag = tag,
                       .body = echo_block},
            RbxBodyMsg{.kind = RbxMsg::Kind::ready,
                       .origin = victim,
                       .tag = tag,
                       .body = ready_block}};
        ctx.broadcast(RbxBatch::encode(msgs));
      }
    }
  }
}

void KvLaneJammer::on_message(Context& ctx, const Envelope& env) {
  // Participate honestly in everything else so the attack is pure lane
  // jamming, not a liveness stall. For jammed instances the receivers
  // have already charged our one echo/ready vote to the garbage block, so
  // these honest replies are dropped there as sender duplicates — which
  // is the point.
  participate(ctx, env, engine_, batcher_, sends_left_, kNoOrigin);
}

}  // namespace rcp::service
