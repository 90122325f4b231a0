#include "service/workload.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rcp::service {

namespace {
using detail::mix64;
}  // namespace

Workload build_workload(core::ConsensusParams params, std::uint32_t byzantine,
                        std::uint32_t shards, std::uint64_t total_ops,
                        std::uint64_t seed) {
  RCP_EXPECT(byzantine < params.n, "workload: no correct replica left");
  Workload w;
  w.n = params.n;
  w.shards = shards;
  w.correct = params.n - byzantine;
  w.total_ops = total_ops;
  w.scripts.resize(params.n);
  for (auto& per_shard : w.scripts) {
    per_shard.resize(shards);
  }
  w.expected_per_origin.assign(params.n, 0);

  Rng rng(seed ^ 0x5e7'1ce'0ff'ee0ULL);
  // Key space: ~1 op in 4 overwrites an existing key once warmed up.
  const std::uint64_t key_space = std::max<std::uint64_t>(64, total_ops / 4);
  for (std::uint64_t i = 0; i < total_ops; ++i) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng.below(key_space));
    const std::uint64_t h = mix64(key);
    const std::uint32_t origin = static_cast<std::uint32_t>(h % w.correct);
    const std::uint32_t shard =
        static_cast<std::uint32_t>((h / w.correct) % shards);
    const std::uint32_t value = static_cast<std::uint32_t>(rng.next());
    w.scripts[origin][shard].push_back(KvOp{key, value});
    ++w.expected_per_origin[origin];
  }
  return w;
}

KvStore reference_store(const Workload& workload) {
  KvStore store(workload.n * workload.shards);
  for (std::uint32_t origin = 0; origin < workload.correct; ++origin) {
    for (std::uint32_t shard = 0; shard < workload.shards; ++shard) {
      const std::vector<KvOp>& script = workload.scripts[origin][shard];
      for (std::uint64_t seq = 0; seq < script.size(); ++seq) {
        store.apply(origin * workload.shards + shard, seq, script[seq]);
      }
    }
  }
  return store;
}

}  // namespace rcp::service
