#include "service/sim_service.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "service/adversary.hpp"

namespace rcp::service {

namespace {
using detail::mix64;
using Clock = std::chrono::steady_clock;

/// Wraps a script source, stamping each pulled op so the apply hook can
/// report submit->apply wall latency. Pulls and own-op applies both run in
/// per-shard seq order, so plain FIFOs line the stamps up.
class StampingOpSource final : public OpSource {
 public:
  StampingOpSource(std::vector<std::vector<KvOp>> scripts,
                   std::uint32_t shards)
      : inner_(std::move(scripts)), stamps_(shards) {}

  [[nodiscard]] std::optional<KvOp> next(std::uint32_t shard) override {
    auto op = inner_.next(shard);
    if (op.has_value()) {
      stamps_[shard].push_back(Clock::now());
    }
    return op;
  }

  [[nodiscard]] double take_latency_ms(std::uint32_t shard) {
    const Clock::time_point t0 = stamps_[shard].front();
    stamps_[shard].pop_front();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  }

 private:
  VectorOpSource inner_;
  std::vector<std::deque<Clock::time_point>> stamps_;
};
}  // namespace

std::uint64_t correct_stream_digest(const KvStore& kv, std::uint32_t correct,
                                    std::uint32_t shards) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t origin = 0; origin < correct; ++origin) {
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
      const std::uint32_t stream = origin * shards + shard;
      h = mix64(h ^ mix64(kv.stream_chain(stream) + stream));
      h = mix64(h ^ kv.stream_applied(stream));
    }
  }
  return h;
}

SimServiceResult run_sim_service(const SimServiceConfig& cfg) {
  RCP_EXPECT(cfg.byzantine <= cfg.params.k,
             "sim service: more Byzantine seats than the resilience target");
  const Workload workload =
      build_workload(cfg.params, cfg.byzantine, cfg.shards, cfg.total_ops,
                     cfg.seed);

  std::vector<std::unique_ptr<Process>> processes;
  processes.reserve(cfg.params.n);
  std::vector<KvReplica*> replicas;
  std::vector<StampingOpSource*> sources;
  for (ProcessId p = 0; p < workload.correct; ++p) {
    ReplicaConfig rc;
    rc.params = cfg.params;
    rc.shards = cfg.shards;
    rc.window = cfg.window;
    rc.keep_log = cfg.keep_log;
    rc.expected_per_origin = workload.expected_per_origin;
    std::shared_ptr<OpSource> source;
    StampingOpSource* stamping = nullptr;
    if (cfg.collect_latencies) {
      auto s = std::make_shared<StampingOpSource>(workload.scripts[p],
                                                  cfg.shards);
      stamping = s.get();
      source = std::move(s);
    } else {
      source = std::make_shared<VectorOpSource>(workload.scripts[p]);
    }
    auto replica = std::make_unique<KvReplica>(rc, std::move(source));
    replicas.push_back(replica.get());
    sources.push_back(stamping);
    processes.push_back(std::move(replica));
  }
  for (ProcessId p = workload.correct; p < cfg.params.n; ++p) {
    KvAdversaryConfig ac;
    ac.params = cfg.params;
    ac.shards = cfg.shards;
    ac.window = cfg.window;
    switch (cfg.adversary) {
      case KvAdversaryKind::equivocator:
        processes.push_back(std::make_unique<KvEquivocator>(ac));
        break;
      case KvAdversaryKind::babbler:
        processes.push_back(std::make_unique<KvBabbler>(ac));
        break;
      case KvAdversaryKind::lane_jammer:
        // Poison every victim stream's whole first window of seqs.
        ac.victims = workload.correct;
        ac.ops_per_shard = std::max(cfg.window, 4u);
        processes.push_back(std::make_unique<KvLaneJammer>(ac));
        break;
      case KvAdversaryKind::none:
        // A Byzantine seat with no strategy behaves as silent (crash-like);
        // an empty replica with nothing to originate models that.
        {
          ReplicaConfig silent;
          silent.params = cfg.params;
          silent.shards = cfg.shards;
          processes.push_back(std::make_unique<KvReplica>(
              silent, std::make_shared<VectorOpSource>(
                          std::vector<std::vector<KvOp>>(cfg.shards))));
        }
        break;
    }
  }

  sim::SimConfig sc;
  sc.n = cfg.params.n;
  sc.seed = cfg.seed;
  sc.max_steps = cfg.max_steps != 0
                     ? cfg.max_steps
                     : 200000 + cfg.total_ops * cfg.params.n * cfg.params.n * 8;
  sim::Simulation simulation(sc, std::move(processes));

  SimServiceResult result;
  if (cfg.collect_latencies) {
    for (ProcessId p = 0; p < workload.correct; ++p) {
      StampingOpSource* src = sources[p];
      replicas[p]->set_apply_hook(
          [&result, src](std::uint32_t shard, std::uint64_t /*seq*/,
                         KvOp /*op*/) {
            result.latencies_ms.push_back(src->take_latency_ms(shard));
          });
    }
  }
  for (ProcessId p = workload.correct; p < cfg.params.n; ++p) {
    simulation.mark_faulty(p);
  }

  const sim::RunResult run = simulation.run();
  result.status = run.status;
  result.steps = run.steps;
  result.messages_sent = simulation.metrics().messages_sent;
  result.messages_delivered = simulation.metrics().messages_delivered;
  result.ops = workload.total_ops;
  result.ops_applied_min = ~std::uint64_t{0};
  for (ProcessId p = 0; p < workload.correct; ++p) {
    const KvReplica& r = *replicas[p];
    result.correct_ids.push_back(p);
    result.digests.push_back(r.digest());
    result.correct_digests.push_back(
        correct_stream_digest(r.store(), workload.correct, cfg.shards));
    result.ops_applied_min =
        std::min(result.ops_applied_min, r.counters().ops_applied);
    result.batches += r.batcher_stats().batches;
    result.batched_msgs += r.batcher_stats().batched_msgs;
    result.ops_submitted += r.counters().ops_submitted;
    result.blocks_originated += r.counters().blocks_originated;
    result.decode_errors += r.counters().decode_errors;
    const ext::RbEngineStats es = r.engine_stats();
    result.engine_drops += es.dropped_origin_range + es.dropped_value_range +
                           es.dropped_retired + es.dropped_sender_dup +
                           es.dropped_slot_overflow + es.dropped_origin_flood;
    result.admission_drops +=
        r.counters().dropped_bad_shard + r.counters().dropped_bad_origin;
  }
  // Byzantine streams: with logs kept, every two correct replicas' logs of
  // one stream must be prefixes of one another — one block per tag, and
  // one chain of blocks, everywhere.
  result.byzantine_prefixes_agree = true;
  for (std::uint32_t stream = workload.correct * cfg.shards;
       cfg.keep_log && stream < cfg.params.n * cfg.shards; ++stream) {
    for (ProcessId p = 1; p < workload.correct; ++p) {
      const auto& a = replicas[0]->store().stream_log(stream);
      const auto& b = replicas[p]->store().stream_log(stream);
      const std::size_t common = std::min(a.size(), b.size());
      if (!std::equal(a.begin(), a.begin() + common, b.begin())) {
        result.byzantine_prefixes_agree = false;
      }
    }
  }
  result.reference_digest = correct_stream_digest(
      reference_store(workload), workload.correct, cfg.shards);
  result.matches_reference = std::all_of(
      result.correct_digests.begin(), result.correct_digests.end(),
      [&](std::uint64_t d) { return d == result.reference_digest; });
  return result;
}

}  // namespace rcp::service
