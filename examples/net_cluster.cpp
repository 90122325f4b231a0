// Loopback cluster driver: run a Bracha–Toueg protocol over real TCP.
//
// Every node is a full net::Node — framed sockets, identity handshake,
// reliable delivery, reconnect — hosting the same sim::Process the
// simulator runs. All n nodes run in this process on ephemeral loopback
// ports, one thread per node or on shared event loops. Every event loop is
// edge-triggered epoll, so the driver runs on Linux only.
//
//   $ ./net_cluster --protocol fig1 --n 5 --crash 4@1
//   $ ./net_cluster --protocol fig2 --n 7 --adversary silent --byz 1
//         --disconnect 0:1@5 --drop 0.02 --json run.json
//   (each invocation on one line)
//
// Options:
//   --protocol fig1|fig2|benor|bracha87   (default fig2)
//   --n N --k K             (default n=7, k = protocol's maximum)
//   --ones M                initial 1-inputs (default n/2)
//   --adversary none|silent|equivocator|balancer|babbler  (default none)
//   --byz B                 byzantine node count (default k if adversary set)
//   --crash ID@PHASE        fail-stop ID when its phase reaches PHASE
//   --disconnect A:B@D      node A force-closes its link to B after A has
//                           delivered D messages (reconnect heals it)
//   --drop P                drop-injection probability per transmission
//   --delay MIN:MAX         uniform per-frame delay in milliseconds
//   --seed S                (default 1)
//   --timeout-ms T          give up after T ms (default 30000)
//   --loop-threads T        drive all n nodes from T shared event-loop
//                           threads (default 0 = one thread per node)
//   --json PATH             write the rcp-net-v1 report
//   --sweep N1,N2,...       benchmark sweep: run the protocol at each n,
//                           thread-per-node and shared-loop side by side,
//                           and write an rcp-net-sweep-v1 report to --json
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/scenario.hpp"
#include "baselines/benor.hpp"
#include "common/table.hpp"
#include "core/failstop.hpp"
#include "core/malicious.hpp"
#include "core/params.hpp"
#include "extensions/bracha87.hpp"
#include "net/cluster.hpp"
#include "net/report.hpp"

namespace {

using namespace rcp;

struct Options {
  std::string protocol = "fig2";
  std::uint32_t n = 7;
  std::optional<std::uint32_t> k;
  std::optional<std::uint32_t> ones;
  std::string adversary = "none";
  std::optional<std::uint32_t> byz_count;
  std::vector<std::pair<ProcessId, Phase>> crashes;
  std::vector<std::pair<ProcessId, net::DisconnectEvent>> disconnects;
  double drop = 0.0;
  std::uint32_t delay_min = 0;
  std::uint32_t delay_max = 0;
  std::uint64_t seed = 1;
  std::uint32_t timeout_ms = 30000;
  std::string json_path;
  std::uint32_t loop_threads = 0;
  std::vector<std::uint32_t> sweep_ns;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--protocol fig1|fig2|benor|bracha87] [--n N] [--k K] [--ones M]\n"
         "       [--adversary none|silent|equivocator|balancer|babbler]"
         " [--byz B]\n"
         "       [--crash ID@PHASE]... [--disconnect A:B@D]...\n"
         "       [--drop P] [--delay MIN:MAX] [--seed S] [--timeout-ms T]\n"
         "       [--loop-threads T] [--json PATH] [--sweep N1,N2,...]\n";
  return 2;
}

/// Parses "A@B" into two integers; false on malformed input.
bool parse_at(const std::string& s, std::uint64_t& a, std::uint64_t& b) {
  const auto at = s.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= s.size()) {
    return false;
  }
  try {
    a = std::stoull(s.substr(0, at));
    b = std::stoull(s.substr(at + 1));
  } catch (...) {
    return false;
  }
  return true;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    try {
      if (flag == "--protocol") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.protocol = v;
        if (opt.protocol != "fig1" && opt.protocol != "fig2" &&
            opt.protocol != "benor" && opt.protocol != "bracha87") {
          return std::nullopt;
        }
      } else if (flag == "--n") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.n = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--k") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.k = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--ones") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.ones = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--adversary") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.adversary = v;
        if (opt.adversary != "none" && opt.adversary != "silent" &&
            opt.adversary != "equivocator" && opt.adversary != "balancer" &&
            opt.adversary != "babbler") {
          return std::nullopt;
        }
      } else if (flag == "--byz") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.byz_count = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--crash") {
        const char* v = next();
        std::uint64_t id = 0;
        std::uint64_t phase = 0;
        if (v == nullptr || !parse_at(v, id, phase)) return std::nullopt;
        opt.crashes.emplace_back(static_cast<ProcessId>(id), phase);
      } else if (flag == "--disconnect") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        const std::string s = v;
        const auto colon = s.find(':');
        if (colon == std::string::npos) return std::nullopt;
        std::uint64_t peer = 0;
        std::uint64_t after = 0;
        if (!parse_at(s.substr(colon + 1), peer, after)) return std::nullopt;
        const auto node = static_cast<ProcessId>(
            std::stoul(s.substr(0, colon)));
        opt.disconnects.emplace_back(
            node, net::DisconnectEvent{static_cast<ProcessId>(peer), after});
      } else if (flag == "--drop") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.drop = std::stod(v);
      } else if (flag == "--delay") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        const std::string s = v;
        const auto colon = s.find(':');
        if (colon == std::string::npos) return std::nullopt;
        opt.delay_min =
            static_cast<std::uint32_t>(std::stoul(s.substr(0, colon)));
        opt.delay_max =
            static_cast<std::uint32_t>(std::stoul(s.substr(colon + 1)));
      } else if (flag == "--seed") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.seed = std::stoull(v);
      } else if (flag == "--timeout-ms") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.timeout_ms = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--json") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.json_path = v;
      } else if (flag == "--loop-threads") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.loop_threads = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--sweep") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        std::string s = v;
        for (std::size_t pos = 0; pos < s.size();) {
          const auto comma = s.find(',', pos);
          const auto end = comma == std::string::npos ? s.size() : comma;
          opt.sweep_ns.push_back(
              static_cast<std::uint32_t>(std::stoul(s.substr(pos, end - pos))));
          pos = end + 1;
        }
        if (opt.sweep_ns.empty()) return std::nullopt;
      } else {
        return std::nullopt;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  return opt;
}

/// The resolved run plan shared by the single-run and sweep modes.
struct Plan {
  std::uint32_t k = 0;
  std::vector<Value> inputs;
  std::vector<ProcessId> byzantine_ids;
};

Plan resolve_plan(const Options& opt) {
  Plan plan;
  const core::FaultModel model =
      (opt.protocol == "fig1" ||
       (opt.protocol == "benor" && opt.adversary == "none"))
          ? core::FaultModel::fail_stop
          : core::FaultModel::malicious;
  plan.k = opt.k.value_or(core::max_resilience(model, opt.n));
  plan.inputs =
      adversary::inputs_with_ones(opt.n, opt.ones.value_or(opt.n / 2));
  if (opt.adversary != "none") {
    const std::uint32_t count =
        std::min(opt.byz_count.value_or(plan.k), opt.n);
    for (std::uint32_t b = 0; b < count; ++b) {
      plan.byzantine_ids.push_back(
          static_cast<ProcessId>(count > 0 ? b * opt.n / count : b));
    }
  }
  return plan;
}

std::unique_ptr<sim::Process> make_process(const Options& opt,
                                           const Plan& plan, ProcessId id) {
  const core::ConsensusParams params{opt.n, plan.k};
  for (const ProcessId b : plan.byzantine_ids) {
    if (b == id) {
      if (opt.adversary == "silent") {
        return std::make_unique<adversary::SilentByzantine>();
      }
      if (opt.adversary == "equivocator") {
        return std::make_unique<adversary::EquivocatorByzantine>(params);
      }
      if (opt.adversary == "balancer") {
        return std::make_unique<adversary::BalancerByzantine>(params);
      }
      return std::make_unique<adversary::BabblerByzantine>(params);
    }
  }
  const Value init = plan.inputs[id];
  if (opt.protocol == "fig1") {
    return core::FailStopConsensus::make(params, init);
  }
  if (opt.protocol == "benor") {
    const auto variant = opt.adversary == "none"
                             ? baselines::BenOrVariant::crash
                             : baselines::BenOrVariant::byzantine;
    return baselines::BenOrConsensus::make(params, variant, init);
  }
  if (opt.protocol == "bracha87") {
    return ext::Bracha87::make(params, init);
  }
  return core::MaliciousConsensus::make(params, init);
}

net::ClusterConfig cluster_config(const Options& opt, const Plan& plan) {
  net::ClusterConfig cfg;
  cfg.n = opt.n;
  cfg.seed = opt.seed;
  cfg.link_faults.drop_probability = opt.drop;
  cfg.link_faults.delay_min_ms = opt.delay_min;
  cfg.link_faults.delay_max_ms = opt.delay_max;
  cfg.disconnects = opt.disconnects;
  cfg.crashes = opt.crashes;
  cfg.arbitrary_faulty = plan.byzantine_ids;
  cfg.timeout_ms = opt.timeout_ms;
  cfg.loop_threads = opt.loop_threads;
  return cfg;
}

net::LatencyHistogram merged_latency(const net::ClusterResult& result) {
  net::LatencyHistogram merged;
  for (const net::NodeOutcome& node : result.nodes) {
    merged.merge(node.stats.latency);
  }
  return merged;
}

int report_run(const Options& opt, const Plan& plan,
               const net::ClusterConfig& cfg,
               const net::ClusterResult& result) {
  std::cout << "protocol : " << opt.protocol << "  n=" << opt.n
            << " k=" << plan.k << " seed=" << opt.seed
            << " transport=tcp-loopback";
  if (opt.loop_threads > 0) {
    std::cout << " loop-threads=" << opt.loop_threads;
  } else {
    std::cout << " thread-per-node";
  }
  std::cout << "\n";
  Table table({"node", "role", "decision", "phase", "delivered", "sent",
               "reconnects", "retransmits"});
  for (const net::NodeOutcome& node : result.nodes) {
    std::uint64_t reconnects = 0;
    std::uint64_t retransmits = 0;
    for (const net::PeerCounters& pc : node.stats.peers) {
      reconnects += pc.reconnects;
      retransmits += pc.retransmits;
    }
    const char* role = node.correct ? "correct"
                       : node.crashed ? "crashed"
                                      : "byzantine";
    table.row()
        .cell(static_cast<std::uint64_t>(node.id))
        .cell(role)
        .cell(node.decision.has_value()
                  ? std::to_string(value_index(*node.decision))
                  : std::string("-"))
        .cell(static_cast<std::uint64_t>(node.phase))
        .cell(node.stats.msgs_delivered)
        .cell(node.stats.msgs_sent)
        .cell(reconnects)
        .cell(retransmits);
  }
  table.print(std::cout);

  std::uint64_t decided = 0;
  for (const net::NodeOutcome& node : result.nodes) {
    if (node.decision.has_value()) {
      ++decided;
    }
  }
  const double elapsed =
      result.elapsed_seconds > 0.0 ? result.elapsed_seconds : 1e-9;
  std::cout << "decided  : " << (result.all_correct_decided
                                     ? "all correct nodes"
                                     : result.timed_out ? "TIMEOUT"
                                                        : "INCOMPLETE")
            << "\nagreement: "
            << (result.agreement ? "holds" : "VIOLATED");
  if (result.value.has_value()) {
    std::cout << " (value " << value_index(*result.value) << ")";
  }
  std::cout << "\nelapsed  : " << format_double(result.elapsed_seconds, 3)
            << "s  msgs/s=" << format_double(
                   static_cast<double>(result.total_delivered) / elapsed, 1)
            << "  decisions/s=" << format_double(
                   static_cast<double>(decided) / elapsed, 1)
            << "\n";
  const net::LatencyHistogram lat = merged_latency(result);
  if (lat.count() > 0) {
    std::cout << "latency  : p50=" << format_double(lat.quantile_ms(0.50), 3)
              << "ms p99=" << format_double(lat.quantile_ms(0.99), 3)
              << "ms p999=" << format_double(lat.quantile_ms(0.999), 3)
              << "ms (" << lat.count() << " frames)\n";
  }
  for (const net::NodeOutcome& node : result.nodes) {
    if (!node.error.empty()) {
      std::cout << "node " << node.id << " ERROR: " << node.error << "\n";
    }
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "error: cannot open " << opt.json_path
                << " for writing\n";
      return 1;
    }
    bench::JsonWriter j(out);
    net::write_cluster_report(j, opt.protocol, cfg, result);
    out << "\n";
    std::cout << "[json] wrote " << opt.json_path << "\n";
  }
  return result.success() ? 0 : 1;
}

/// One sweep cell: the protocol at one n under one threading model.
struct SweepRun {
  std::string label;
  std::uint32_t n = 0;
  std::uint32_t loop_threads = 0;
  bool ok = false;
  double elapsed_seconds = 0.0;
  double msgs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// Runs the protocol at every requested n, thread-per-node and shared-loop
/// side by side, and reports throughput + tail latency per cell. The
/// labels ({protocol}_n{N}_tpn / _shared{T}) are what BENCH_BASELINE.json
/// tracks and tools/check_bench_regression.py --net gates on.
int run_sweep(const Options& opt) {
  const std::uint32_t shared_threads =
      opt.loop_threads > 0 ? opt.loop_threads : 4;
  std::vector<SweepRun> runs;
  for (const std::uint32_t n : opt.sweep_ns) {
    for (const std::uint32_t threads : {0u, shared_threads}) {
      Options run_opt = opt;
      run_opt.n = n;
      run_opt.loop_threads = threads;
      run_opt.sweep_ns.clear();
      const Plan plan = resolve_plan(run_opt);
      const net::ClusterConfig cfg = cluster_config(run_opt, plan);
      net::Cluster cluster(cfg, [&](ProcessId id) {
        return make_process(run_opt, plan, id);
      });
      const net::ClusterResult result = cluster.run();

      SweepRun run;
      run.label = opt.protocol + "_n" + std::to_string(n) +
                  (threads == 0 ? std::string("_tpn")
                                : "_shared" + std::to_string(threads));
      run.n = n;
      run.loop_threads = threads;
      run.ok = result.success();
      run.elapsed_seconds = result.elapsed_seconds;
      const double elapsed =
          result.elapsed_seconds > 0.0 ? result.elapsed_seconds : 1e-9;
      run.msgs_per_sec =
          static_cast<double>(result.total_delivered) / elapsed;
      const net::LatencyHistogram lat = merged_latency(result);
      run.p50_ms = lat.quantile_ms(0.50);
      run.p99_ms = lat.quantile_ms(0.99);
      run.p999_ms = lat.quantile_ms(0.999);
      std::cout << run.label << ": " << (run.ok ? "ok" : "FAILED")
                << "  msgs/s=" << format_double(run.msgs_per_sec, 1)
                << "  p50=" << format_double(run.p50_ms, 3)
                << "ms p99=" << format_double(run.p99_ms, 3)
                << "ms p999=" << format_double(run.p999_ms, 3) << "ms\n";
      runs.push_back(std::move(run));
    }
  }

  Table table({"label", "n", "threads", "ok", "msgs/s", "p50ms", "p99ms",
               "p999ms"});
  for (const SweepRun& run : runs) {
    table.row()
        .cell(run.label)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(
            run.loop_threads == 0 ? run.n : run.loop_threads))
        .cell(run.ok ? "yes" : "NO")
        .cell(format_double(run.msgs_per_sec, 1))
        .cell(format_double(run.p50_ms, 3))
        .cell(format_double(run.p99_ms, 3))
        .cell(format_double(run.p999_ms, 3));
  }
  table.print(std::cout);

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "error: cannot open " << opt.json_path << "\n";
      return 1;
    }
    bench::JsonWriter j(out);
    j.begin_object();
    j.field("schema", "rcp-net-sweep-v1");
    j.field("protocol", opt.protocol);
    j.field("seed", opt.seed);
    j.key("runs");
    j.begin_array();
    for (const SweepRun& run : runs) {
      j.begin_object();
      j.field("label", run.label);
      j.field("n", run.n);
      j.field("loop_threads", run.loop_threads);
      j.field("ok", run.ok);
      j.field("elapsed_seconds", run.elapsed_seconds);
      j.field("msgs_per_sec", run.msgs_per_sec);
      j.field("p50_ms", run.p50_ms);
      j.field("p99_ms", run.p99_ms);
      j.field("p999_ms", run.p999_ms);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    out << "\n";
    std::cout << "[json] wrote " << opt.json_path << "\n";
  }

  for (const SweepRun& run : runs) {
    if (!run.ok) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed.has_value()) {
    return usage(argv[0]);
  }
  const Options& opt = *parsed;
  try {
    const Plan plan = resolve_plan(opt);
    if (!opt.sweep_ns.empty()) {
      return run_sweep(opt);
    }
    const net::ClusterConfig cfg = cluster_config(opt, plan);
    net::Cluster cluster(cfg, [&](ProcessId id) {
      return make_process(opt, plan, id);
    });
    const net::ClusterResult result = cluster.run();
    return report_run(opt, plan, cfg, result);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
