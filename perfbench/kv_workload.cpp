// The KV-service workloads: client writes through the replicated log
// (service::KvReplica over ext::RbEngine) on a loopback TCP mesh
// (net::Cluster). All replicas are correct; k = (n-1)/3.
//
// kv_open_loop — independent clients: Poisson arrivals at kOpenLoopRate,
//   about an eighth of the capacity of its shape, n = 4, one event-loop
//   thread per replica. Latency runs from the instant a write was due, so
//   a stall also charges the writes queued behind it. Not a gated
//   workload: its sub-millisecond latency spreads too much run to run on a
//   shared host (README.md).
// kv_capacity — the open loop's shape driven closed-loop to saturation:
//   the measurement kOpenLoopRate is derived from. Not a gated workload.
// kv_single_loop — waiting clients: a closed loop of kWindow clients per
//   stream, each issuing its next write when the previous one applies,
//   n = 7 replicas multiplexed on one shared event-loop thread: the
//   saturated throughput of one loop. Three such groups run side by side
//   (the worker-shard layout of docs/SERVICE.md), which averages out the
//   drift of any one CPU's speed.
//
// One op is one write: issue when the client hands it over, start when
// the owner replica pulls it into its broadcast window (RbEngine initial),
// done when the owner applies it behind the per-stream FIFO barrier.
//
// Checked for every round: the cluster finished without timeout or node
// error, every write applied, and every replica's KvStore digest equals a
// reference store built by applying each stream's script in order.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/rng.hpp"
#include "net/cluster.hpp"
#include "runtime/sync.hpp"
#include "service/kv_store.hpp"
#include "service/replica.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace rcp;

struct KvShape {
  std::uint32_t n = 4;
  std::uint32_t shards = 2;
  /// 0 = one event-loop thread per replica; T = T shared loops.
  std::uint32_t loop_threads = 0;
  /// Open loop: mean arrivals per second. 0 = closed loop.
  double rate = 0;
  /// Independent clusters run side by side in each round.
  std::uint32_t groups = 1;
  /// Ops per stream issued at round start and excluded from the samples.
  std::uint32_t warmup_per_stream = 32;
  /// Closed loop: measured ops per stream and round.
  std::uint32_t closed_ops_per_stream = 0;
};

/// Per-shard origination window (the replica's default); in the closed
/// loop also the number of waiting clients per stream.
constexpr std::uint32_t kWindow = 64;
/// Key space per stream: small enough that writes overwrite earlier ones.
constexpr std::uint32_t kKeysPerStream = 4096;
/// Open loop: length of one round's arrival schedule.
constexpr double kOpenRoundSeconds = 1.0;
/// Open loop: offered writes per second, 13% of the 753,000 writes/s that
/// kv_capacity measured for the same shape on a 4-vCPU virtual machine
/// (median of five 30 s runs). At this rate a replica pulls new writes on
/// message arrival rather than on its 1 ms idle tick, so the commit path
/// is 80% to 90% of p50; at a quarter of capacity writes already queue.
/// README.md has the sweep. A constant keeps the offered load the same
/// across the commits being compared.
constexpr double kOpenLoopRate = 100000;

/// The client side of one replica: per-shard queues of (op, issue time)
/// that the replica pulls on its loop thread, and the in-flight record the
/// apply hook pops (own ops apply in pull order, per shard).
class ClientQueue final : public service::OpSource {
 public:
  struct Inflight {
    Clock::time_point issued;
    Clock::time_point started;
  };

  ClientQueue(std::uint32_t shards, bool trace)
      : trace_(trace), queued_(shards), inflight_(shards) {}

  void push(std::uint32_t shard, service::KvOp op, Clock::time_point issued) {
    const runtime::MutexLock lock(mu_);
    queued_[shard].push_back(Queued{op, issued});
  }

  [[nodiscard]] std::optional<service::KvOp> next(
      std::uint32_t shard) override {
    const runtime::MutexLock lock(mu_);
    if (queued_[shard].empty()) {
      return std::nullopt;
    }
    const Queued q = queued_[shard].front();
    queued_[shard].pop_front();
    inflight_[shard].push_back(
        Inflight{q.issued, trace_ ? Clock::now() : q.issued});
    return q.op;
  }

  [[nodiscard]] Inflight take(std::uint32_t shard) {
    const runtime::MutexLock lock(mu_);
    const Inflight f = inflight_[shard].front();
    inflight_[shard].pop_front();
    return f;
  }

 private:
  struct Queued {
    service::KvOp op;
    Clock::time_point issued;
  };

  const bool trace_;
  runtime::Mutex mu_;
  std::vector<std::deque<Queued>> queued_ RCP_GUARDED_BY(mu_);
  std::vector<std::deque<Inflight>> inflight_ RCP_GUARDED_BY(mu_);
};

/// Samples of one replica, written only by the loop thread driving it and
/// read after the cluster has joined its threads.
struct NodeSink {
  std::vector<double> latency_ms;
  std::vector<double> admit_ms;
  std::vector<double> commit_ms;
  Clock::time_point last_apply{};
};

/// One open-loop arrival: stream (origin, shard) and its due offset from
/// the end of warm-up.
struct Arrival {
  double offset_s = 0;
  std::uint32_t origin = 0;
  std::uint32_t shard = 0;
};

struct RoundInputs {
  /// scripts[origin][shard]: the stream's ops in issue order, warm-up first.
  std::vector<std::vector<std::vector<service::KvOp>>> scripts;
  std::vector<Arrival> arrivals;  ///< open loop only, by offset
  std::uint64_t warmup_total = 0;
  std::uint64_t measured_total = 0;
};

service::KvOp draw_op(Rng& rng) {
  return service::KvOp{static_cast<std::uint32_t>(rng.below(kKeysPerStream)),
                       static_cast<std::uint32_t>(rng.next())};
}

/// The benchmark draws its own writes rather than using
/// service::build_workload: inputs must stay the same across the commits
/// being compared, and the open loop needs each write's arrival time and
/// stream drawn together.
RoundInputs make_inputs(const KvShape& shape, double window_s, Rng& rng) {
  RoundInputs in;
  in.scripts.assign(shape.n, std::vector<std::vector<service::KvOp>>(
                                 shape.shards));
  for (auto& origin : in.scripts) {
    for (auto& script : origin) {
      for (std::uint32_t i = 0; i < shape.warmup_per_stream; ++i) {
        script.push_back(draw_op(rng));
      }
      in.warmup_total += shape.warmup_per_stream;
    }
  }
  if (shape.rate > 0) {
    for (double t = 0;;) {
      t += -std::log1p(-rng.uniform01()) / shape.rate;
      if (t >= window_s) {
        break;
      }
      const auto origin = static_cast<std::uint32_t>(rng.below(shape.n));
      const auto shard = static_cast<std::uint32_t>(rng.below(shape.shards));
      in.arrivals.push_back(Arrival{t, origin, shard});
      in.scripts[origin][shard].push_back(draw_op(rng));
    }
    in.measured_total = in.arrivals.size();
  } else {
    for (auto& origin : in.scripts) {
      for (auto& script : origin) {
        for (std::uint32_t i = 0; i < shape.closed_ops_per_stream; ++i) {
          script.push_back(draw_op(rng));
        }
        in.measured_total += shape.closed_ops_per_stream;
      }
    }
  }
  return in;
}

/// Digest a correct replica must reach: every stream's script applied in
/// order to one store.
std::uint64_t reference_digest(const KvShape& shape, const RoundInputs& in) {
  service::KvStore store(shape.n * shape.shards);
  for (std::uint32_t origin = 0; origin < shape.n; ++origin) {
    for (std::uint32_t shard = 0; shard < shape.shards; ++shard) {
      const auto& script = in.scripts[origin][shard];
      for (std::uint64_t seq = 0; seq < script.size(); ++seq) {
        store.apply(origin * shape.shards + shard, seq, script[seq]);
      }
    }
  }
  return store.digest();
}

/// Process CPU time at the two points where every group of a round meets:
/// once each cluster is built, and once each cluster's run() has returned.
/// Set-up, teardown and the reference check fall outside.
struct CpuWindow {
  double at[2] = {0, 0};
  int crossed = 0;
  /// Completion step of the barrier the groups meet at.
  struct Mark {
    CpuWindow* window;
    void operator()() const noexcept {
      window->at[window->crossed++] = cpu_seconds_now();
    }
  };
};
using WindowBarrier = std::barrier<CpuWindow::Mark>;

/// What one cluster contributes to a round.
struct GroupOut {
  Round round;  ///< samples only; the spans are set by run_round
  Clock::time_point ready{};
  Clock::time_point done{};
  std::uint64_t measured = 0;
  std::uint64_t ops = 0;  ///< warm-up + measured
  std::uint64_t msgs = 0;
  std::uint64_t frames = 0;
  std::uint64_t retransmits = 0;
  /// CPU of the group's own thread inside the window: the client side
  /// (issuing writes, the open-loop schedule), not the program's.
  double client_cpu_seconds = 0;
  std::string error;  ///< empty when every check passed
};

/// Builds one cluster, drives a round of writes through it and checks the
/// replicas' state. Meets the other groups at `window` twice, whatever
/// fails, so none of them waits forever.
GroupOut run_group(const KvShape& shape, const RunConfig& cfg,
                   double window_s, Rng rng, Clock::time_point t0,
                   WindowBarrier& window) {
  const bool closed = shape.rate <= 0;
  const core::ConsensusParams params{shape.n, (shape.n - 1) / 3};
  const RoundInputs in = make_inputs(shape, window_s, rng);

  std::vector<std::uint64_t> expected(shape.n, 0);
  for (std::uint32_t origin = 0; origin < shape.n; ++origin) {
    for (const auto& script : in.scripts[origin]) {
      expected[origin] += script.size();
    }
  }
  std::vector<std::shared_ptr<ClientQueue>> queues;
  for (std::uint32_t p = 0; p < shape.n; ++p) {
    queues.push_back(std::make_shared<ClientQueue>(shape.shards, cfg.trace));
  }

  // Written by the apply hooks; declared first so they outlive the cluster.
  std::vector<NodeSink> sinks(shape.n);
  std::atomic<std::uint64_t> applied{0};
  std::atomic<Clock::rep> ready_ticks{0};  // closed loop: end of warm-up

  net::ClusterConfig cc;
  cc.n = shape.n;
  cc.seed = rng.next();
  cc.timeout_ms = 60000;
  // The replica pulls client ops on message arrival and on this tick.
  cc.limits.idle_tick_ms = 1;
  // Lossless transport for a load generator (as examples/kv_loadgen).
  cc.limits.max_queued_frames = std::size_t{1} << 17;
  cc.limits.backpressure_high_water = std::size_t{1} << 16;
  cc.loop_threads = shape.loop_threads;

  GroupOut g;
  std::optional<net::Cluster> cluster;
  std::vector<service::KvReplica*> replicas(shape.n, nullptr);
  try {
    cluster.emplace(cc, [&](ProcessId id) {
      service::ReplicaConfig rc;
      rc.params = params;
      rc.shards = shape.shards;
      rc.window = kWindow;
      rc.expected_per_origin = expected;
      return std::make_unique<service::KvReplica>(rc, queues[id]);
    });
  } catch (const std::exception& e) {
    g.error = e.what();  // e.g. no free loopback port
    cluster.reset();
  }

  for (std::uint32_t p = 0; p < shape.n && cluster; ++p) {
    auto& replica =
        dynamic_cast<service::KvReplica&>(cluster->node(p).process());
    replicas[p] = &replica;
    replica.set_apply_hook([&, p](std::uint32_t shard, std::uint64_t seq,
                                  service::KvOp) {
      const Clock::time_point now = Clock::now();
      ClientQueue& queue = *queues[p];
      const ClientQueue::Inflight f = queue.take(shard);
      NodeSink& sink = sinks[p];
      sink.last_apply = now;
      if (seq >= shape.warmup_per_stream) {
        sink.latency_ms.push_back(ms_between(f.issued, now));
        if (cfg.trace) {
          sink.admit_ms.push_back(ms_between(f.issued, f.started));
          sink.commit_ms.push_back(ms_between(f.started, now));
        }
      }
      if (applied.fetch_add(1, std::memory_order_relaxed) + 1 ==
          in.warmup_total) {
        ready_ticks.store(now.time_since_epoch().count(),
                          std::memory_order_release);
      }
      if (closed) {
        // The client whose write just applied issues its next one.
        const auto& script = in.scripts[p][shard];
        if (seq + kWindow < script.size()) {
          queue.push(shard, script[seq + kWindow], now);
        }
      }
    });
  }

  window.arrive_and_wait();  // every group's cluster is built
  const double client_cpu0 = thread_cpu_seconds_now();
  std::atomic<bool> finished{false};
  net::ClusterResult result;
  if (cluster) {
    std::jthread runner([&] {
      try {
        result = cluster->run();
      } catch (const std::exception& e) {
        g.error = e.what();
      }
      finished.store(true, std::memory_order_release);
    });
    const Clock::time_point issue0 = Clock::now();
    for (std::uint32_t p = 0; p < shape.n; ++p) {
      for (std::uint32_t shard = 0; shard < shape.shards; ++shard) {
        const auto& script = in.scripts[p][shard];
        const std::size_t first =
            closed ? std::min<std::size_t>(kWindow, script.size())
                   : shape.warmup_per_stream;
        for (std::size_t i = 0; i < first; ++i) {
          queues[p]->push(shard, script[i], issue0);
        }
      }
    }
    if (!closed) {
      while (applied.load(std::memory_order_acquire) < in.warmup_total &&
             !finished.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      g.ready = Clock::now();
      std::vector<std::uint32_t> cursor(shape.n * shape.shards,
                                        shape.warmup_per_stream);
      for (const Arrival& a : in.arrivals) {
        if (finished.load(std::memory_order_acquire)) {
          break;  // the cluster gave up; run() reported why
        }
        const Clock::time_point due =
            g.ready + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(a.offset_s));
        if (Clock::now() < due) {
          std::this_thread::sleep_until(due);
        }
        const std::uint32_t stream = a.origin * shape.shards + a.shard;
        queues[a.origin]->push(
            a.shard, in.scripts[a.origin][a.shard][cursor[stream]++], due);
      }
    }
  }  // joins the runner: every loop thread has stopped
  g.client_cpu_seconds = thread_cpu_seconds_now() - client_cpu0;
  window.arrive_and_wait();  // every group's run() has returned
  if (!cluster) {
    return g;
  }

  if (closed) {
    g.ready = Clock::time_point(
        Clock::duration(ready_ticks.load(std::memory_order_acquire)));
    if (g.ready == Clock::time_point{}) {
      g.ready = t0;
    }
  }
  g.done = g.ready;
  for (NodeSink& sink : sinks) {
    g.done = std::max(g.done, sink.last_apply);
    g.round.latency_ms.insert(g.round.latency_ms.end(),
                              sink.latency_ms.begin(), sink.latency_ms.end());
    g.round.admit_ms.insert(g.round.admit_ms.end(), sink.admit_ms.begin(),
                            sink.admit_ms.end());
    g.round.commit_ms.insert(g.round.commit_ms.end(), sink.commit_ms.begin(),
                             sink.commit_ms.end());
  }
  g.measured = in.measured_total;
  g.ops = in.warmup_total + in.measured_total;

  const std::uint64_t want = reference_digest(shape, in);
  bool digests_ok = true;
  for (std::uint32_t p = 0; p < shape.n; ++p) {
    digests_ok = digests_ok && replicas[p]->digest() == want;
    g.msgs += replicas[p]->counters().msgs_decoded;
  }
  for (const net::NodeOutcome& node : result.nodes) {
    for (const net::PeerCounters& pc : node.stats.peers) {
      g.frames += pc.msgs_out;
      g.retransmits += pc.retransmits;
    }
  }
  if (g.error.empty()) {
    if (result.timed_out) {
      g.error = "timed out";
    } else if (!result.success()) {
      g.error = "a node failed or replicas disagree";
    } else if (g.round.latency_ms.size() != in.measured_total) {
      g.error = "writes missing";
    } else if (!digests_ok) {
      g.error = "replica state differs from the reference";
    }
  }
  return g;
}

/// Runs one round: `groups` clusters side by side, each on its own
/// threads, and folds their samples into `r`.
void run_round(const KvShape& shape, const RunConfig& cfg, double window_s,
               Rng& rng, RunResult& r) {
  const Clock::time_point t0 = Clock::now();
  CpuWindow cpu;
  WindowBarrier window(static_cast<std::ptrdiff_t>(shape.groups),
                       CpuWindow::Mark{&cpu});
  std::vector<GroupOut> outs(shape.groups);
  {
    std::vector<std::jthread> groups;
    for (std::uint32_t i = 0; i < shape.groups; ++i) {
      groups.emplace_back([&, i, group_rng = rng.split()] {
        try {
          outs[i] = run_group(shape, cfg, window_s, group_rng, t0, window);
        } catch (const std::exception& e) {
          outs[i].error = e.what();  // after the window: out of memory
        }
      });
    }
  }  // joins
  r.cpu_seconds += cpu.at[1] - cpu.at[0];

  Round& out = r.rounds.emplace_back();
  Clock::time_point first_ready = outs.front().ready;
  Clock::time_point last_ready = outs.front().ready;
  Clock::time_point done = outs.front().done;
  for (GroupOut& g : outs) {
    first_ready = std::min(first_ready, g.ready);
    last_ready = std::max(last_ready, g.ready);
    done = std::max(done, g.done);
    out.latency_ms.insert(out.latency_ms.end(), g.round.latency_ms.begin(),
                          g.round.latency_ms.end());
    out.admit_ms.insert(out.admit_ms.end(), g.round.admit_ms.begin(),
                        g.round.admit_ms.end());
    out.commit_ms.insert(out.commit_ms.end(), g.round.commit_ms.begin(),
                         g.round.commit_ms.end());
    r.attempted += g.measured;
    r.failed += g.measured - std::min<std::uint64_t>(
                                 g.measured, g.round.latency_ms.size());
    r.ops_total += g.ops;
    r.msgs += g.msgs;
    r.frames += g.frames;
    r.retransmits += g.retransmits;
    r.cpu_seconds -= g.client_cpu_seconds;
    if (!g.error.empty()) {
      r.correct = false;
      r.notes.push_back("round failed: " + g.error);
    }
  }
  out.setup_seconds = std::chrono::duration<double>(last_ready - t0).count();
  out.measured_seconds =
      std::chrono::duration<double>(done - first_ready).count();
}

RunResult run_kv(const KvShape& shape, const RunConfig& cfg) {
  RunResult r;
  Rng rng(cfg.seed);
  const Clock::time_point start = Clock::now();
  const auto budget = std::chrono::duration<double>(cfg.seconds);
  if (shape.rate > 0) {
    const int rounds = rounds_in(cfg.seconds, kOpenRoundSeconds);
    const double window_s = cfg.seconds / rounds;
    for (int round = 0; round < rounds && r.correct; ++round) {
      run_round(shape, cfg, window_s, rng, r);
    }
  } else {
    // Fixed-size rounds until the run's time is used.
    do {
      run_round(shape, cfg, 0, rng, r);
    } while (r.correct && Clock::now() - start < budget);
  }
  return r;
}

/// n = 4, 2 shards, one event-loop thread per replica.
KvShape open_loop_shape() {
  KvShape shape;
  shape.n = 4;
  shape.shards = 2;
  shape.loop_threads = 0;
  return shape;
}

}  // namespace

RunResult run_kv_open_loop(const RunConfig& cfg) {
  KvShape shape = open_loop_shape();
  shape.rate = kOpenLoopRate;
  return run_kv(shape, cfg);
}

RunResult run_kv_capacity(const RunConfig& cfg) {
  KvShape shape = open_loop_shape();
  shape.warmup_per_stream = 128;
  shape.closed_ops_per_stream = 32768;
  return run_kv(shape, cfg);
}

RunResult run_kv_single_loop(const RunConfig& cfg) {
  KvShape shape;
  shape.n = 7;
  shape.shards = 4;
  shape.loop_threads = 1;
  shape.groups = 3;
  shape.warmup_per_stream = 128;
  shape.closed_ops_per_stream = 4096;
  return run_kv(shape, cfg);
}

}  // namespace perfbench
