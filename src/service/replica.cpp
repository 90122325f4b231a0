#include "service/replica.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcp::service {

KvReplica::KvReplica(ReplicaConfig cfg, std::shared_ptr<OpSource> source)
    : cfg_(cfg),
      source_(std::move(source)),
      kv_(cfg.params.n * cfg.shards, cfg.keep_log),
      next_seq_(cfg.shards, 0),
      inflight_(cfg.shards, 0),
      next_apply_(static_cast<std::size_t>(cfg.params.n) * cfg.shards, 0),
      ahead_(next_apply_.size(), 0),
      applied_from_(cfg.params.n, 0) {
  step_affinity_.assert_held();  // constructing thread is the first driver
  RCP_EXPECT(cfg_.shards >= 1 && cfg_.shards < (1u << kShardBits),
             "KvReplica: shard count out of tag range");
  RCP_EXPECT(source_ != nullptr, "KvReplica: null op source");
  const std::uint32_t hint = cfg_.params.n * cfg_.window;
  // Per-origin live-instance cap: a DoS backstop against Byzantine phantom
  // (origin, seq) spray, enforced anchor-aware inside the engine so real
  // protocol traffic is never shed (see rb_engine.hpp). It sits far above
  // the origination window: legitimate traffic must never hit it, because
  // a dropped vote is never retransmitted and Bracha's ready threshold has
  // zero slack under the full fault budget. "Far above" must account for
  // *receiver lag*, not just the window — the origin's window advances on
  // a 2k+1 quorum, so the k slowest correct replicas can trail the
  // frontier by an unbounded backlog of live (unretired) instances; a cap
  // near the window wedges fault-free runs under load. The cap is
  // therefore an OOM backstop (~tens of MB per origin at worst), not flow
  // control.
  const std::uint32_t origin_cap = std::max(65536u, cfg_.window * 1024u);
  RCP_EXPECT(origin_cap > cfg_.window,
             "KvReplica: per-origin instance cap must exceed the window");
  // Every stream's whole window: what one step applies when a message
  // unblocks every stream at once. A longer run grows the buffer once.
  writes_.reserve(next_apply_.size() * cfg_.window);
  engines_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    engines_.emplace_back(cfg_.params, hint, ext::kRbValueAny, origin_cap);
  }
  if (!cfg_.expected_per_origin.empty()) {
    for (const std::uint64_t expected : cfg_.expected_per_origin) {
      if (expected > 0) {
        ++origins_remaining_;
      }
    }
  }
}

ext::RbEngineStats KvReplica::engine_stats() const {
  step_affinity_.assert_held();  // driver-thread observer (see header)
  ext::RbEngineStats total;
  for (const ext::RbEngine& e : engines_) {
    const ext::RbEngineStats& s = e.stats();
    total.handled += s.handled;
    total.dropped_origin_range += s.dropped_origin_range;
    total.dropped_value_range += s.dropped_value_range;
    total.dropped_retired += s.dropped_retired;
    total.dropped_sender_dup += s.dropped_sender_dup;
    total.dropped_slot_overflow += s.dropped_slot_overflow;
    total.dropped_origin_flood += s.dropped_origin_flood;
    total.evicted_unanchored += s.evicted_unanchored;
    total.grows += s.grows;
  }
  return total;
}

std::size_t KvReplica::live_instances() const {
  step_affinity_.assert_held();  // driver-thread observer (see header)
  std::size_t total = 0;
  for (const ext::RbEngine& e : engines_) {
    total += e.instance_count();
  }
  return total;
}

void KvReplica::pull(Context& ctx, std::uint32_t shard) {
  while (inflight_[shard] < cfg_.window) {
    const std::optional<KvOp> op = source_->next(shard);
    if (!op.has_value()) {
      return;
    }
    const std::uint64_t tag = make_tag(shard, next_seq_[shard]++);
    ++inflight_[shard];
    ++counters_.ops_submitted;
    batcher_.queue_broadcast(
        ctx, engines_[shard].start(self_, tag, pack_op(*op)));
  }
}

void KvReplica::pull_all(Context& ctx) {
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    pull(ctx, s);
  }
}

// The Process entry points are where the stepping thread enters: each one
// re-states the affinity the virtual dispatch erased.
void KvReplica::on_start(Context& ctx) {
  step_affinity_.assert_held();
  self_ = ctx.self();
  pull_all(ctx);
  batcher_.flush(ctx);
}

void KvReplica::on_null(Context& ctx) {
  step_affinity_.assert_held();
  pull_all(ctx);
  batcher_.flush(ctx);
}

void KvReplica::on_message(Context& ctx, const Envelope& env) {
  step_affinity_.assert_held();
  try {
    if (ext::RbxBatch::is_batch(env.payload)) {
      // Validated whole before the first feed: a bad entry anywhere
      // drops the batch. The envelope outlives the loop.
      const ext::RbxBatch::View batch(env.payload, ext::kRbValueAny);
      ++counters_.batches_decoded;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        feed(ctx, env.sender, batch[i]);
      }
    } else {
      feed(ctx, env.sender,
           ext::RbxMsg::decode(env.payload, ext::kRbValueAny));
    }
  } catch (const DecodeError&) {
    // Byzantine bytes: drop the payload, count it, stay alive.
    ++counters_.decode_errors;
  }
  // The store is only observed between steps, so its writes can wait
  // for the end of this one and go in as one prefetched span.
  kv_.apply_all(writes_);
  writes_.clear();
  pull_all(ctx);
  batcher_.flush(ctx);
}

void KvReplica::feed(Context& ctx, ProcessId sender, const ext::RbxMsg& msg) {
  const std::uint32_t shard = shard_of(msg.tag);
  if (shard >= cfg_.shards) {
    ++counters_.dropped_bad_shard;
    return;
  }
  if (msg.origin >= cfg_.params.n) {
    ++counters_.dropped_bad_origin;
    return;
  }
  // No seq-space shedding here: a vote dropped on receipt is gone forever
  // (nothing retransmits), and under asynchrony a correct stream can race
  // arbitrarily far past this replica's cursor, so any fixed horizon
  // eventually sheds real votes and wedges the stream. Phantom-flood
  // bounding lives in the engine's anchor-aware per-origin caps instead.
  ++counters_.msgs_decoded;
  const ext::RbEngine::Outcome out = engines_[shard].handle(sender, msg);
  for (const ext::RbxMsg& reply : out.to_broadcast) {
    batcher_.queue_broadcast(ctx, reply);
  }
  if (out.delivered.has_value()) {
    ++counters_.deliveries;
    on_delivered(ctx, shard, *out.delivered);
  }
}

void KvReplica::on_delivered(Context& ctx, std::uint32_t shard,
                             const ext::RbEngine::Delivery& d) {
  const std::uint32_t stream = stream_of(d.origin, shard);
  std::uint64_t seq = seq_of(d.tag);
  if (seq != next_apply_[stream]) {
    // Delivered ahead of the cursor (behind is impossible — applied tags
    // are retired). The instance stays live in the engine with its value
    // queryable, so nothing is buffered replica-side and nothing can be
    // shed: whether an op applies depends only on the cursor, never on
    // local arrival order, which is what keeps correct replicas on
    // identical per-stream prefixes. Only the count is kept, so the apply
    // below asks the engine for the next seq only when one is waiting.
    ++ahead_[stream];
    ++counters_.deferred_deliveries;
    return;
  }
  // FIFO barrier: apply the contiguous run starting at the cursor. The
  // first value is the one just delivered; each later one is a deferred
  // delivery, found by querying the engine while ahead_ says one waits.
  ext::RbEngine& engine = engines_[shard];
  ext::RbValue word = d.value;
  for (;;) {
    const KvOp op = unpack_op(word);
    ++next_apply_[stream];
    writes_.push_back(KvStore::Write{stream, seq, op});
    ++counters_.ops_applied;
    engine.retire_through(d.origin, make_tag(shard, seq));
    if (d.origin == self_) {
      ++counters_.own_ops_applied;
      if (inflight_[shard] > 0) {
        --inflight_[shard];
      }
      if (apply_hook_) {
        apply_hook_(shard, seq, op);
      }
    }
    if (!cfg_.expected_per_origin.empty() &&
        d.origin < cfg_.expected_per_origin.size()) {
      if (++applied_from_[d.origin] ==
              cfg_.expected_per_origin[d.origin] &&
          cfg_.expected_per_origin[d.origin] > 0) {
        if (--origins_remaining_ == 0) {
          ctx.decide(Value::one);
        }
      }
    }
    if (ahead_[stream] == 0) {
      return;
    }
    ++seq;
    const std::optional<ext::RbValue> next =
        engine.delivered(d.origin, make_tag(shard, seq));
    if (!next.has_value()) {
      return;
    }
    --ahead_[stream];
    word = *next;
  }
}

}  // namespace rcp::service
