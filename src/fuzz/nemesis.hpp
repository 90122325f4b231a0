// Net-level nemesis: replay a SchedulePlan's fault scenario against a live
// net::Cluster (real sockets, real threads) through the transport's
// deterministic drop/delay/disconnect injection — the Jepsen-style
// counterpart of the simulator runs.
//
// The mapping is deterministic in the plan bytes: the same protocol,
// inputs, Byzantine cast and phase-crash schedule run over TCP; the plan's
// net-* knobs become LinkFaults; disconnect events derive from the tape
// seed's SplitMix64 stream. The tape itself cannot dictate socket
// interleavings (the kernel schedules those), so the check is the paper's
// properties rather than a trace digest: every correct node decides, and
// their decision digests MATCH.
#pragma once

#include <cstdint>

#include "fuzz/plan.hpp"
#include "net/cluster.hpp"

namespace rcp::fuzz {

struct NemesisConfig {
  /// 0 = one thread per node; T > 0 = shared loops (see net::Cluster).
  std::uint32_t loop_threads = 0;
  std::uint32_t timeout_ms = 30000;
};

struct NemesisResult {
  /// Run finished without timeout or node-loop errors.
  bool completed = false;
  /// Every correct node decided and all decision digests agree.
  bool digests_match = false;
  /// FNV-1a over (id, decision) of correct nodes in id order.
  std::uint64_t decision_digest = 0;
  net::ClusterResult cluster;
};

/// The ClusterConfig a plan maps to (exposed for tests and the CLI).
[[nodiscard]] net::ClusterConfig nemesis_cluster_config(
    const SchedulePlan& plan, const NemesisConfig& cfg);

/// Builds and runs the cluster for `plan`.
[[nodiscard]] NemesisResult run_nemesis(const SchedulePlan& plan,
                                        const NemesisConfig& cfg);

}  // namespace rcp::fuzz
