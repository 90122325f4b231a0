// In-process loopback cluster: N net::Nodes on real sockets.
//
// The cluster is the net-mode analogue of sim::Simulation::run(): build a
// process per node from a factory, wire the full mesh, run until every
// correct node decides (or a wall-clock timeout), then stop everything and
// report per-node outcomes plus the paper's two checkable properties —
// all correct processes decide, and they decide the same value.
//
// Threading: loop_threads = 0 (default) runs one thread per node, each on
// its own private event loop — the faithful "n independent machines"
// configuration. loop_threads = T > 0 multiplexes all n nodes onto
// min(T, n) shared EventLoop threads (round-robin assignment), which is
// how n=100 full-mesh (~10k sockets) runs on single-digit threads.
// Protocol semantics are identical; only the scheduler changes.
//
// Ports: every node binds an ephemeral loopback port (bind 0, read the
// real port back) and the cluster distributes the port table before any
// thread starts, so parallel test runs never collide.
//
// Faultiness: a node is *faulty* if it hosts a Byzantine process
// (arbitrary_faulty) or is scheduled to fail-stop (crashes). Decision and
// agreement are required of correct nodes only — exactly the paper's
// claim, which says nothing about what faulty processes decide.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "net/node.hpp"

namespace rcp::net {

struct ClusterConfig {
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  NodeLimits limits;
  /// Drop/delay injection applied at every node.
  LinkFaults link_faults;
  /// (node, event): force-close that node's link per the event.
  std::vector<std::pair<ProcessId, DisconnectEvent>> disconnects;
  /// (node, phase): fail-stop that node when its phase reaches the value.
  std::vector<std::pair<ProcessId, Phase>> crashes;
  /// Nodes hosting Byzantine processes (exempt from decision/agreement).
  std::vector<ProcessId> arbitrary_faulty;
  /// Give up if the correct nodes have not all decided by then.
  std::uint32_t timeout_ms = 30000;
  /// 0 = one thread per node; T > 0 = min(T, n) shared loop threads.
  std::uint32_t loop_threads = 0;
};

struct NodeOutcome {
  ProcessId id = 0;
  bool correct = true;
  std::optional<Value> decision;
  Phase phase = 0;
  bool crashed = false;
  std::string error;  ///< non-empty if the node loop died on an exception
  NodeStats stats;
};

struct ClusterResult {
  bool all_correct_decided = false;
  /// All correct nodes that decided decided the same value.
  bool agreement = false;
  bool timed_out = false;
  std::optional<Value> value;  ///< the agreed value, when agreement holds
  double elapsed_seconds = 0.0;
  std::uint64_t total_delivered = 0;
  std::uint64_t total_sent = 0;
  std::uint64_t total_bytes_out = 0;
  std::uint64_t total_reconnects = 0;
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_spurious_retransmits = 0;
  std::vector<NodeOutcome> nodes;

  /// Decision + agreement both hold and no node loop errored.
  [[nodiscard]] bool success() const noexcept {
    if (!all_correct_decided || !agreement) {
      return false;
    }
    for (const NodeOutcome& node : nodes) {
      if (!node.error.empty()) {
        return false;
      }
    }
    return true;
  }
};

class Cluster {
 public:
  using ProcessFactory =
      std::function<std::unique_ptr<sim::Process>(ProcessId)>;

  /// Builds every node, binds every listener and distributes the port
  /// table. Throws on invalid config or if a bind fails.
  Cluster(ClusterConfig cfg, const ProcessFactory& factory);

  /// Runs all nodes to completion (every correct node decided, a correct
  /// node died early, or timeout), stops and joins them, and returns the
  /// collected outcomes. One shot: call once per Cluster.
  [[nodiscard]] ClusterResult run();

  [[nodiscard]] Node& node(ProcessId p) { return *nodes_.at(p); }
  [[nodiscard]] std::uint32_t n() const noexcept { return cfg_.n; }

 private:
  ClusterConfig cfg_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> correct_;
};

}  // namespace rcp::net
