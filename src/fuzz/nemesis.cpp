#include "fuzz/nemesis.hpp"

#include <memory>
#include <utility>

#include "core/failstop.hpp"
#include "core/majority.hpp"
#include "core/malicious.hpp"
#include "fuzz/digest.hpp"

namespace rcp::fuzz {

namespace {

std::unique_ptr<sim::Process> make_protocol_process(const PlanSpec& spec,
                                                    Value input) {
  switch (spec.protocol) {
    case adversary::ProtocolKind::fail_stop:
      return core::FailStopConsensus::make(spec.params, input);
    case adversary::ProtocolKind::malicious:
      return core::MaliciousConsensus::make(spec.params, input);
    case adversary::ProtocolKind::majority:
      return core::MajorityConsensus::make(spec.params, input);
  }
  return nullptr;
}

}  // namespace

net::ClusterConfig nemesis_cluster_config(const SchedulePlan& plan,
                                          const NemesisConfig& cfg) {
  const PlanSpec& spec = plan.spec;
  net::ClusterConfig cluster;
  cluster.n = spec.params.n;
  cluster.seed = spec.seed;
  cluster.timeout_ms = cfg.timeout_ms;
  cluster.loop_threads = cfg.loop_threads;

  cluster.link_faults.drop_probability = spec.net_drop_permille / 1000.0;
  cluster.link_faults.delay_min_ms = 0;
  cluster.link_faults.delay_max_ms = spec.net_delay_max_ms;

  // Disconnect schedule: a pure function of the tape seed, so the same plan
  // partitions the same links after the same delivery counts on every run.
  std::uint64_t state = plan.tape_seed ^ 0xa02bdbf7bb3c0a7ULL;
  for (std::uint32_t i = 0; i < spec.net_disconnects; ++i) {
    const std::uint64_t v = splitmix64(state);
    const auto node = static_cast<ProcessId>(v % spec.params.n);
    auto peer = static_cast<ProcessId>((v >> 16) % spec.params.n);
    if (peer == node) {
      peer = (peer + 1) % spec.params.n;
    }
    net::DisconnectEvent event;
    event.peer = peer;
    event.after_delivered = 1 + ((v >> 32) % 64);
    cluster.disconnects.emplace_back(node, event);
  }

  for (const auto& c : spec.crashes) {
    // Step-indexed crashes have no transport analogue (there is no global
    // step counter on a live mesh); phase crashes map one to one.
    if (c.by_phase) {
      cluster.crashes.emplace_back(c.victim, c.at_phase);
    }
  }
  cluster.arbitrary_faulty = spec.byzantine_ids;
  return cluster;
}

NemesisResult run_nemesis(const SchedulePlan& plan, const NemesisConfig& cfg) {
  const PlanSpec& spec = plan.spec;
  std::vector<bool> is_byz(spec.params.n, false);
  for (const ProcessId b : spec.byzantine_ids) {
    is_byz[b] = true;
  }

  net::Cluster cluster(
      nemesis_cluster_config(plan, cfg), [&](ProcessId id) {
        if (is_byz[id]) {
          return adversary::make_byzantine(spec.byzantine_kind, spec.params,
                                           spec.moves);
        }
        return make_protocol_process(spec, spec.inputs[id]);
      });

  NemesisResult out;
  out.cluster = cluster.run();

  bool any_error = false;
  Digest d;
  for (const net::NodeOutcome& node : out.cluster.nodes) {
    if (!node.error.empty()) {
      any_error = true;
    }
    if (!node.correct) {
      continue;
    }
    d.mix(node.id);
    d.mix(node.decision.has_value()
              ? static_cast<std::uint64_t>(*node.decision)
              : 2);
  }
  out.decision_digest = d.h;
  out.completed = !out.cluster.timed_out && !any_error;
  out.digests_match =
      out.cluster.all_correct_decided && out.cluster.agreement;
  return out;
}

}  // namespace rcp::fuzz
