// Client load generator for the consensus-backed KV service
// (docs/SERVICE.md): drive ≥100k writes through the replicated log and
// report ops/sec, p50/p99/p999 apply latency, and frames-per-op — how
// well the replica's per-step batching coalesces its messages.
//
// Two transports, one replica:
//   --mode sim   G independent deterministic groups on a TrialPool (the
//                worker-shard layout of docs/SERVICE.md), aggregate ops/sec.
//   --mode net   one loopback TCP cluster (net::Cluster, edge-triggered
//                epoll, Linux only); client threads enqueue ops into
//                per-replica queues, replicas pull them on the idle tick,
//                frames-per-op comes from real transport frame counters
//                (PeerCounters::msgs_out).
//
// Latency is origination->apply on the owner replica (consensus latency;
// queue wait before the window admits an op is excluded — the same
// definition sim mode uses, so the two modes are comparable). Each run
// also checks every replica against a reference store built by applying
// each client's script in order; a mismatch reports `ok NO` and exits 1.
//
//   $ ./kv_loadgen --mode sim --ops 100000 --json svc.json
//   $ ./kv_loadgen --mode net --n 7 --ops 100000
//
// Options:
//   --mode sim|net          (default sim)
//   --n N --k K             (default n=7, k=(n-1)/3)
//   --shards S              shards per replica (default 4)
//   --ops OPS               total client writes per run (default 100000)
//   --window W              per-shard origination window (default 64)
//   --groups G              sim mode: independent groups (default 4)
//   --threads T             sim mode: TrialPool size (default: cores)
//   --seed S                (default 1)
//   --timeout-ms T          net mode: per-run wall limit (default 120000)
//   --loop-threads T        net mode: T shared event-loop threads instead
//                           of one thread per replica (labels gain
//                           a _sharedT suffix)
//   --json PATH             write the rcp-svc-v1 report
#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "net/cluster.hpp"
#include "runtime/sync.hpp"
#include "service/loadgen.hpp"
#include "service/sim_service.hpp"
#include "service/workload.hpp"

namespace {

using namespace rcp;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string mode = "sim";
  std::uint32_t n = 7;
  std::optional<std::uint32_t> k;
  std::uint32_t shards = 4;
  std::uint64_t ops = 100000;
  std::uint32_t window = 64;
  std::uint32_t groups = 4;
  std::uint32_t threads = 0;
  std::uint64_t seed = 1;
  std::uint32_t timeout_ms = 120000;
  std::uint32_t loop_threads = 0;
  std::string json_path;
};

/// One run's aggregate — shared by the sim and net paths so reporting and
/// the JSON writer see a single shape.
struct RunReport {
  std::string label;
  std::uint64_t ops = 0;
  double wall_seconds = 0;
  double ops_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  /// net: data frames enqueued across all links; sim: messages delivered.
  std::uint64_t frames = 0;
  double frames_per_op = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_msgs = 0;
  /// Own ops per own block originated (ops_submitted / blocks_originated).
  double ops_per_block = 0;
  /// Converged, and every replica matches the reference store.
  bool ok = false;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--mode sim|net] [--n N] [--k K] [--shards S] [--ops OPS]\n"
               "       [--window W] [--groups G]\n"
               "       [--threads T] [--seed S] [--timeout-ms T]\n"
               "       [--loop-threads T] [--json PATH]\n";
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
      if (flag == "--mode") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.mode = v;
        if (opt.mode != "sim" && opt.mode != "net") return std::nullopt;
      } else if (flag == "--n") {
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
      } else if (flag == "--window") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.window = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--groups") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.groups = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--threads") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.threads = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--seed") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.seed = std::stoull(v);
      } else if (flag == "--timeout-ms") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.timeout_ms = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--loop-threads") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.loop_threads = static_cast<std::uint32_t>(std::stoul(v));
      } else if (flag == "--json") {
        const char* v = next();
        if (v == nullptr) return std::nullopt;
        opt.json_path = v;
      } else {
        return std::nullopt;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  return opt;
}

// ---- sim mode -----------------------------------------------------------

RunReport run_sim(const Options& opt) {
  service::SimLoadgenConfig cfg;
  cfg.group.params =
      core::ConsensusParams{opt.n, opt.k.value_or((opt.n - 1) / 3)};
  cfg.group.shards = opt.shards;
  // `ops` is the whole-run budget; each group carries an equal slice.
  cfg.group.total_ops = std::max<std::uint64_t>(1, opt.ops / opt.groups);
  cfg.group.window = opt.window;
  cfg.group.seed = opt.seed;
  cfg.groups = opt.groups;
  cfg.threads = opt.threads;

  const service::SimLoadgenResult r = service::run_sim_loadgen(cfg);
  RunReport report;
  report.label = "sim_n" + std::to_string(opt.n);
  report.ops = r.total_ops;
  report.wall_seconds = r.wall_seconds;
  report.ops_per_sec = r.ops_per_sec;
  report.p50_ms = r.p50_ms;
  report.p99_ms = r.p99_ms;
  report.p999_ms = r.p999_ms;
  report.frames = r.messages_delivered;
  report.frames_per_op = r.frames_per_op;
  report.batches = r.batches;
  report.batched_msgs = r.batched_msgs;
  report.ops_per_block = r.ops_per_block;
  report.ok = r.all_ok;
  return report;
}

// ---- net mode -----------------------------------------------------------

/// Thread-safe OpSource: client threads push, the node thread pulls on the
/// idle tick. next() stamps origination time; the apply hook collects it —
/// push/next/take all under one lock because they cross threads.
class QueueOpSource final : public service::OpSource {
 public:
  explicit QueueOpSource(std::uint32_t shards)
      : queues_(shards), stamps_(shards) {}

  void push(std::uint32_t shard, service::KvOp op) {
    const runtime::MutexLock lock(mu_);
    queues_[shard].push_back(op);
  }

  [[nodiscard]] std::optional<service::KvOp> next(
      std::uint32_t shard) override {
    const runtime::MutexLock lock(mu_);
    if (queues_[shard].empty()) {
      return std::nullopt;
    }
    const service::KvOp op = queues_[shard].front();
    queues_[shard].pop_front();
    stamps_[shard].push_back(Clock::now());
    return op;
  }

  /// Own-op applies run in per-shard seq order, matching next() order.
  [[nodiscard]] double take_latency_ms(std::uint32_t shard) {
    const runtime::MutexLock lock(mu_);
    const Clock::time_point t0 = stamps_[shard].front();
    stamps_[shard].pop_front();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  }

 private:
  runtime::Mutex mu_;
  std::vector<std::deque<service::KvOp>> queues_ RCP_GUARDED_BY(mu_);
  std::vector<std::deque<Clock::time_point>> stamps_ RCP_GUARDED_BY(mu_);
};

RunReport run_net(const Options& opt) {
  const core::ConsensusParams params{opt.n,
                                     opt.k.value_or((opt.n - 1) / 3)};
  const service::Workload workload =
      service::build_workload(params, 0, opt.shards, opt.ops, opt.seed);

  std::vector<std::shared_ptr<QueueOpSource>> sources;
  sources.reserve(opt.n);
  for (ProcessId p = 0; p < opt.n; ++p) {
    sources.push_back(std::make_shared<QueueOpSource>(opt.shards));
  }

  net::ClusterConfig cc;
  cc.n = opt.n;
  cc.seed = opt.seed;
  cc.timeout_ms = opt.timeout_ms;
  // The replica is pull-based; the tick is what turns queued client ops
  // into originations between message arrivals.
  cc.limits.idle_tick_ms = 1;
  // The default queue bound models lossy faulty-process behaviour; a load
  // generator measuring throughput needs the transport lossless, so the
  // bound sits far above the unacked backlog a link builds while its
  // peer's loop is descheduled.
  cc.limits.max_queued_frames = std::size_t{1} << 17;
  cc.limits.backpressure_high_water = std::size_t{1} << 16;
  cc.loop_threads = opt.loop_threads;

  net::Cluster cluster(cc, [&](ProcessId id) {
    service::ReplicaConfig rc;
    rc.params = params;
    rc.shards = opt.shards;
    rc.window = opt.window;
    rc.expected_per_origin = workload.expected_per_origin;
    return std::make_unique<service::KvReplica>(rc, sources[id]);
  });

  // Per-node latency sinks: each apply hook runs on its own node's thread.
  std::vector<std::vector<double>> node_latencies(opt.n);
  std::vector<service::KvReplica*> replicas(opt.n, nullptr);
  for (ProcessId p = 0; p < opt.n; ++p) {
    auto& replica = dynamic_cast<service::KvReplica&>(cluster.node(p).process());
    replicas[p] = &replica;
    QueueOpSource* src = sources[p].get();
    auto* sink = &node_latencies[p];
    replica.set_apply_hook([src, sink](std::uint32_t shard,
                                       std::uint64_t /*seq*/,
                                       service::KvOp /*op*/) {
      sink->push_back(src->take_latency_ms(shard));
    });
  }

  // Client threads: one per replica, feeding that replica's streams.
  std::vector<std::thread> clients;
  clients.reserve(opt.n);
  for (ProcessId p = 0; p < opt.n; ++p) {
    clients.emplace_back([&workload, &sources, p] {
      for (std::uint32_t shard = 0; shard < workload.shards; ++shard) {
        for (const service::KvOp op : workload.scripts[p][shard]) {
          sources[p]->push(shard, op);
        }
      }
    });
  }

  const net::ClusterResult result = cluster.run();
  for (std::thread& t : clients) {
    t.join();
  }

  RunReport report;
  report.label = "net_n" + std::to_string(opt.n) +
                 (opt.loop_threads > 0
                      ? "_shared" + std::to_string(opt.loop_threads)
                      : "");
  report.ops = workload.total_ops;
  report.wall_seconds = result.elapsed_seconds;
  if (result.elapsed_seconds > 0) {
    report.ops_per_sec =
        static_cast<double>(workload.total_ops) / result.elapsed_seconds;
  }
  std::vector<double> latencies;
  for (const std::vector<double>& per_node : node_latencies) {
    latencies.insert(latencies.end(), per_node.begin(), per_node.end());
  }
  if (!latencies.empty()) {
    report.p50_ms = quantile(latencies, 0.50);
    report.p99_ms = quantile(latencies, 0.99);
    report.p999_ms = quantile(latencies, 0.999);
  }
  for (const net::NodeOutcome& node : result.nodes) {
    for (const net::PeerCounters& pc : node.stats.peers) {
      report.frames += pc.msgs_out;
    }
  }
  if (workload.total_ops > 0) {
    report.frames_per_op = static_cast<double>(report.frames) /
                           static_cast<double>(workload.total_ops);
  }
  const std::uint64_t want = service::correct_stream_digest(
      service::reference_store(workload), workload.correct, opt.shards);
  bool digests_ok = true;
  std::uint64_t submitted = 0;
  std::uint64_t blocks = 0;
  for (ProcessId p = 0; p < opt.n; ++p) {
    const std::uint64_t got = service::correct_stream_digest(
        replicas[p]->store(), workload.correct, opt.shards);
    digests_ok = digests_ok && got == want;
    report.batches += replicas[p]->batcher_stats().batches;
    report.batched_msgs += replicas[p]->batcher_stats().batched_msgs;
    submitted += replicas[p]->counters().ops_submitted;
    blocks += replicas[p]->counters().blocks_originated;
  }
  if (blocks > 0) {
    report.ops_per_block =
        static_cast<double>(submitted) / static_cast<double>(blocks);
  }
  report.ok = result.all_correct_decided && digests_ok;
  return report;
}

// ---- reporting ----------------------------------------------------------

void print_report(const Options& opt, const RunReport& r) {
  std::cout << "kv_loadgen: mode=" << opt.mode << " n=" << opt.n
            << " shards=" << opt.shards << " ops=" << opt.ops
            << " window=" << opt.window << " seed=" << opt.seed << "\n";
  Table table({"run", "ops", "wall_s", "ops/sec", "p50_ms", "p99_ms",
               "p999_ms", "frames/op", "batches", "ops/block", "ok"});
  table.row()
      .cell(r.label)
      .cell(r.ops)
      .cell(r.wall_seconds, 3)
      .cell(r.ops_per_sec, 1)
      .cell(r.p50_ms, 3)
      .cell(r.p99_ms, 3)
      .cell(r.p999_ms, 3)
      .cell(r.frames_per_op, 2)
      .cell(r.batches)
      .cell(r.ops_per_block, 2)
      .cell(r.ok ? "yes" : "NO");
  table.print(std::cout);
}

int write_json(const Options& opt, const RunReport& r) {
  std::ofstream out(opt.json_path);
  if (!out) {
    std::cerr << "error: cannot open " << opt.json_path << " for writing\n";
    return 1;
  }
  bench::JsonWriter j(out);
  j.begin_object();
  j.field("schema", "rcp-svc-v1");
  j.field("mode", opt.mode);
  j.field("n", opt.n);
  j.field("k", opt.k.value_or((opt.n - 1) / 3));
  j.field("shards", opt.shards);
  j.field("ops", opt.ops);
  j.field("window", opt.window);
  j.field("seed", opt.seed);
  if (opt.mode == "sim") {
    j.field("groups", opt.groups);
  }
  j.key("runs");
  j.begin_array();
  j.begin_object();
  j.field("label", r.label);
  j.field("ops", r.ops);
  j.field("wall_seconds", r.wall_seconds);
  j.field("ops_per_sec", r.ops_per_sec);
  j.field("p50_ms", r.p50_ms);
  j.field("p99_ms", r.p99_ms);
  j.field("p999_ms", r.p999_ms);
  j.field("frames", r.frames);
  j.field("frames_per_op", r.frames_per_op);
  j.field("batches", r.batches);
  j.field("batched_msgs", r.batched_msgs);
  j.field("ops_per_block", r.ops_per_block);
  j.field("ok", r.ok);
  j.end_object();
  j.end_array();
  j.end_object();
  out << "\n";
  std::cout << "[json] wrote " << opt.json_path << "\n";
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
    const RunReport report = opt.mode == "sim" ? run_sim(opt) : run_net(opt);
    print_report(opt, report);
    if (!opt.json_path.empty()) {
      const int rc = write_json(opt, report);
      if (rc != 0) {
        return rc;
      }
    }
    return report.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
