#include "service/loadgen.hpp"

#include <chrono>
#include <vector>

#include "common/stats.hpp"
#include "runtime/seeding.hpp"
#include "runtime/trial_pool.hpp"

namespace rcp::service {

SimLoadgenResult run_sim_loadgen(const SimLoadgenConfig& cfg) {
  std::vector<SimServiceResult> group_results(cfg.groups);
  runtime::TrialPool pool(cfg.threads);
  const auto t0 = std::chrono::steady_clock::now();
  pool.for_each(cfg.groups, [&](std::uint64_t group, std::uint32_t /*worker*/) {
    SimServiceConfig gc = cfg.group;
    gc.seed = runtime::trial_seed(cfg.group.seed, group);
    gc.collect_latencies = true;
    group_results[group] = run_sim_service(gc);
  });
  const auto t1 = std::chrono::steady_clock::now();

  SimLoadgenResult out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.all_ok = true;
  std::vector<double> latencies;
  std::uint64_t submitted = 0;
  std::uint64_t blocks = 0;
  for (const SimServiceResult& g : group_results) {
    out.total_ops += g.ops;
    out.messages_delivered += g.messages_delivered;
    out.batches += g.batches;
    out.batched_msgs += g.batched_msgs;
    submitted += g.ops_submitted;
    blocks += g.blocks_originated;
    if (g.status != sim::RunStatus::all_decided || !g.matches_reference) {
      out.all_ok = false;
    }
    latencies.insert(latencies.end(), g.latencies_ms.begin(),
                     g.latencies_ms.end());
  }
  if (out.wall_seconds > 0) {
    out.ops_per_sec = static_cast<double>(out.total_ops) / out.wall_seconds;
  }
  if (out.total_ops > 0) {
    out.frames_per_op = static_cast<double>(out.messages_delivered) /
                        static_cast<double>(out.total_ops);
  }
  if (blocks > 0) {
    out.ops_per_block =
        static_cast<double>(submitted) / static_cast<double>(blocks);
  }
  if (!latencies.empty()) {
    out.p50_ms = quantile(latencies, 0.50);
    out.p99_ms = quantile(latencies, 0.99);
    out.p999_ms = quantile(latencies, 0.999);
  }
  return out;
}

}  // namespace rcp::service
