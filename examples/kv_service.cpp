// Minimal consensus-as-a-service demo: a sharded replicated KV log where
// every client write rides one Bracha-broadcast instance (docs/SERVICE.md).
//
// Runs one deterministic simulation of n replicas (one seat Byzantine) over
// a generated workload, then shows what the service guarantees: every
// correct replica applied each correct client's ops in that client's
// order, so its correct-stream digest matches the reference store built
// straight from the scripts — even with an equivocator in the mesh.
//
//   $ ./kv_service
//   $ ./kv_service --n 7 --shards 4 --ops 5000 --adversary babbler
//
// Options:
//   --n N --k K           (default n=7, k=(n-1)/3)
//   --shards S            shards per replica (default 2)
//   --ops OPS             total client writes (default 2000)
//   --adversary none|equivocator|babbler|lane_jammer   (default equivocator)
//   --byz B               byzantine seats (default 1, 0 with none)
//   --seed S              (default 1)
#include <iostream>
#include <optional>
#include <string>

#include "common/table.hpp"
#include "service/sim_service.hpp"

namespace {

using namespace rcp;

struct Options {
  std::uint32_t n = 7;
  std::optional<std::uint32_t> k;
  std::uint32_t shards = 2;
  std::uint64_t ops = 2000;
  std::string adversary = "equivocator";
  std::optional<std::uint32_t> byz;
  std::uint64_t seed = 1;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--n N] [--k K] [--shards S] [--ops OPS]\n"
               "       [--adversary none|equivocator|babbler|lane_jammer]\n"
               "       [--byz B] [--seed S]\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    try {
      if (flag == "--n") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.n = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--k") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.k = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--shards") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.shards = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--ops") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.ops = std::stoull(v);
      } else if (flag == "--adversary") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.adversary = v;
        if (opt.adversary != "none" && opt.adversary != "equivocator" &&
            opt.adversary != "babbler" && opt.adversary != "lane_jammer") {
          return std::nullopt;
        }
      } else if (flag == "--byz") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.byz = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--seed") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.seed = std::stoull(v);
      } else {
        return std::nullopt;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed.has_value()) {
    return usage(argv[0]);
  }
  const Options& opt = *parsed;

  service::SimServiceConfig cfg;
  cfg.params = core::ConsensusParams{opt.n, opt.k.value_or((opt.n - 1) / 3)};
  cfg.shards = opt.shards;
  cfg.total_ops = opt.ops;
  cfg.seed = opt.seed;
  cfg.adversary = opt.adversary == "equivocator"
                      ? service::KvAdversaryKind::equivocator
                  : opt.adversary == "babbler" ? service::KvAdversaryKind::babbler
                  : opt.adversary == "lane_jammer"
                      ? service::KvAdversaryKind::lane_jammer
                      : service::KvAdversaryKind::none;
  cfg.byzantine =
      opt.byz.value_or(opt.adversary == "none" ? 0U : 1U);

  try {
    const service::SimServiceResult r = service::run_sim_service(cfg);

    std::cout << "service  : n=" << opt.n << " k=" << cfg.params.k
              << " shards=" << opt.shards << " ops=" << opt.ops
              << " adversary=" << opt.adversary << "(" << cfg.byzantine
              << ")\n";
    Table table({"replica", "correct-stream digest", "full digest"});
    for (std::size_t i = 0; i < r.correct_ids.size(); ++i) {
      table.row()
          .cell(static_cast<std::uint64_t>(r.correct_ids[i]))
          .cell(r.correct_digests[i])
          .cell(r.digests[i]);
    }
    table.print(std::cout);
    std::cout << "status   : "
              << (r.status == sim::RunStatus::all_decided ? "all applied"
                                                          : "INCOMPLETE")
              << "  steps=" << r.steps
              << "  messages=" << r.messages_delivered << "\n"
              << "batching : batches=" << r.batches
              << "  batched msgs=" << r.batched_msgs
              << "  ops_per_block="
              << (r.blocks_originated > 0
                      ? static_cast<double>(r.ops_submitted) /
                            static_cast<double>(r.blocks_originated)
                      : 0.0)
              << "\n"
              << "defense  : decode errors=" << r.decode_errors
              << "  engine drops=" << r.engine_drops
              << "  admission drops=" << r.admission_drops << "\n"
              << "replicas : "
              << (r.matches_reference ? "correct streams MATCH"
                                      : "correct streams DIVERGED from")
              << " the reference " << r.reference_digest << "\n";
    return r.status == sim::RunStatus::all_decided && r.matches_reference
               ? 0
               : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
