#include "net/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "net/loop.hpp"

namespace rcp::net {

namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

}  // namespace

Cluster::Cluster(ClusterConfig cfg, const ProcessFactory& factory)
    : cfg_(std::move(cfg)) {
  RCP_EXPECT(cfg_.n >= 1, "cluster needs at least one node");
  RCP_EXPECT(static_cast<bool>(factory), "null process factory");

  correct_.assign(cfg_.n, true);
  for (const ProcessId p : cfg_.arbitrary_faulty) {
    RCP_EXPECT(p < cfg_.n, "arbitrary_faulty id outside [0, n)");
    correct_[p] = false;
  }
  for (const auto& [p, phase] : cfg_.crashes) {
    RCP_EXPECT(p < cfg_.n, "crash schedule id outside [0, n)");
    (void)phase;
    correct_[p] = false;
  }

  nodes_.reserve(cfg_.n);
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    NodeConfig nc;
    nc.id = id;
    nc.n = cfg_.n;
    nc.seed = cfg_.seed;
    nc.limits = cfg_.limits;
    nc.faults.link = cfg_.link_faults;
    for (const auto& [node, event] : cfg_.disconnects) {
      if (node == id) {
        nc.faults.disconnects.push_back(event);
      }
    }
    for (const auto& [node, phase] : cfg_.crashes) {
      if (node == id) {
        nc.crash_at_phase = phase;
      }
    }
    nodes_.push_back(std::make_unique<Node>(nc, factory(id)));
  }

  // A full mesh is ~n^2 sockets plus listeners and wake pipes; make sure
  // the fd limit accommodates it before any bind can hit EMFILE.
  (void)raise_fd_limit(static_cast<std::size_t>(cfg_.n) * cfg_.n +
                       static_cast<std::size_t>(cfg_.n) * 4 + 64);

  // Bind everything first, then distribute the real ports: nobody knows
  // an ephemeral port until its listener exists.
  std::vector<std::uint16_t> ports(cfg_.n, 0);
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    ports[id] = nodes_[id]->listen();
  }
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    for (ProcessId p = 0; p < cfg_.n; ++p) {
      if (p != id) {
        nodes_[id]->set_peer(p, PeerAddress{kLoopbackHost, ports[p]});
      }
    }
  }
}

ClusterResult Cluster::run() {
  // loop_threads 0 means one loop per node (thread-per-node); otherwise
  // nodes are dealt round-robin over min(loop_threads, n) shared loops.
  const std::uint32_t loop_count =
      cfg_.loop_threads == 0 ? cfg_.n : std::min(cfg_.loop_threads, cfg_.n);

  std::vector<std::unique_ptr<EventLoop>> loops;
  loops.reserve(loop_count);
  for (std::uint32_t t = 0; t < loop_count; ++t) {
    loops.push_back(std::make_unique<EventLoop>());
  }
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    loops[id % loop_count]->add(*nodes_[id]);
  }

  const auto started = steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(loop_count);
  for (std::uint32_t t = 0; t < loop_count; ++t) {
    threads.emplace_back([loop = loops[t].get()] { loop->run(); });
  }

  const auto deadline = started + milliseconds(cfg_.timeout_ms);
  ClusterResult result;
  while (true) {
    bool all_decided = true;
    bool correct_node_died = false;
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      if (!correct_[id]) {
        continue;
      }
      if (!nodes_[id]->decision().has_value()) {
        all_decided = false;
        // A correct node whose loop already tore it down will never decide;
        // waiting for the timeout would only hide the failure.
        if (nodes_[id]->finished()) {
          correct_node_died = true;
        }
      }
    }
    if (all_decided || correct_node_died) {
      break;
    }
    if (steady_clock::now() >= deadline) {
      result.timed_out = true;
      break;
    }
    std::this_thread::sleep_for(milliseconds(2));
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(steady_clock::now() - started).count();

  for (const auto& node : nodes_) {
    node->request_stop();
  }
  for (std::thread& t : threads) {
    t.join();
  }

  result.nodes.reserve(cfg_.n);
  bool any_correct_undecided = false;
  bool disagreement = false;
  std::optional<Value> agreed;
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    NodeOutcome out;
    out.id = id;
    out.correct = correct_[id];
    out.decision = nodes_[id]->decision();
    out.phase = nodes_[id]->phase();
    out.crashed = nodes_[id]->crashed();
    out.error = nodes_[id]->error();
    out.stats = nodes_[id]->stats();

    result.total_delivered += out.stats.msgs_delivered;
    result.total_sent += out.stats.msgs_sent;
    for (const PeerCounters& pc : out.stats.peers) {
      result.total_bytes_out += pc.bytes_out;
      result.total_reconnects += pc.reconnects;
      result.total_retransmits += pc.retransmits;
      result.total_spurious_retransmits += pc.spurious_retransmits;
    }

    if (correct_[id]) {
      if (!out.decision.has_value()) {
        any_correct_undecided = true;
      } else if (!agreed.has_value()) {
        agreed = out.decision;
      } else if (*agreed != *out.decision) {
        disagreement = true;
      }
    }
    result.nodes.push_back(std::move(out));
  }

  result.all_correct_decided = !any_correct_undecided;
  result.agreement = !disagreement;
  if (result.agreement && agreed.has_value()) {
    result.value = agreed;
  }
  return result;
}

}  // namespace rcp::net
