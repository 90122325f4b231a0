// Workload fig2_byzantine: Figure 2 (the malicious-fault protocol) agreeing
// on one binary value among n = 16 processes sized for k = 5 faults, two of
// them Byzantine equivocators at random seats, in the deterministic
// simulator under the paper's probabilistic message system. No sockets:
// this is the protocol's own cost, the echo-quorum path and the simulator
// beneath it. (With all five seats equivocating, balanced inputs often
// need hundreds of phases; a benchmark op must finish.)
//
// One op is one consensus instance with fresh random inputs and Byzantine
// seats: issue when its inputs are drawn, start once the simulation is
// built, done when every correct process has decided. Three worker
// threads each run instances back to back: a closed loop with three
// clients, the way a host serves many independent instances. Three
// workers also average out the drift of any one CPU's speed.
//
// Checked for every instance: every correct process decides, they all
// decide the same value, and when all correct inputs agree the decision is
// that input (the paper's termination, agreement and validity).
//
// The workers live for the whole run, so no system is rebuilt per round:
// a round's set-up is its warm-up, kWarmup instances per worker.
#include <algorithm>
#include <barrier>
#include <optional>
#include <thread>
#include <vector>

#include "adversary/scenario.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace rcp;

constexpr std::uint32_t kN = 16;
constexpr std::uint32_t kK = 5;
constexpr std::uint32_t kByzantine = 2;
constexpr unsigned kWorkers = 3;
/// The workers finish about 2,000 instances a second, so each round's p99
/// has about 20 samples beyond it.
constexpr double kRoundSeconds = 1.0;
/// Instances each worker runs in a round's set-up before measuring starts.
constexpr int kWarmup = 10;

adversary::Scenario draw(Rng& rng) {
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::malicious;
  s.params = core::ConsensusParams{kN, kK};
  s.inputs = adversary::random_inputs(kN, rng);
  for (const std::uint32_t id :
       rng.sample_without_replacement(kN, kByzantine)) {
    s.byzantine_ids.push_back(id);
  }
  s.byzantine_kind = adversary::ByzantineKind::equivocator;
  s.seed = rng.next();
  return s;
}

bool outcome_ok(const sim::Simulation& sim, const adversary::Scenario& s) {
  const std::optional<Value> decided = sim.agreed_value();
  if (!sim.all_correct_decided() || !sim.agreement_holds() ||
      !decided.has_value()) {
    return false;
  }
  const std::vector<ProcessId> correct = sim.correct_ids();
  for (const ProcessId p : correct) {
    if (s.inputs[p] != s.inputs[correct.front()]) {
      return true;  // mixed inputs: either decision is valid
    }
  }
  return *decided == s.inputs[correct.front()];
}

/// Builds and runs one instance; false if it failed a check or threw.
/// `started` is set once the simulation is built.
bool run_instance(const adversary::Scenario& s, Clock::time_point& started,
                  sim::Metrics& metrics) {
  try {
    auto sim = adversary::build(s);
    started = Clock::now();
    sim->run();
    metrics = sim->metrics();
    return outcome_ok(*sim, s);
  } catch (const std::exception&) {
    return false;
  }
}

/// One worker's share of a measured round.
struct WorkerOut {
  Round round;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t msgs = 0;
  std::uint64_t frames = 0;
  Clock::time_point last_done{};
};

WorkerOut measure(Rng& rng, Clock::time_point ready,
                  Clock::time_point deadline, bool trace) {
  WorkerOut w;
  Clock::time_point now = ready;
  while (now < deadline) {
    const Clock::time_point issued = now;
    Clock::time_point started = now;
    sim::Metrics metrics;
    const bool ok = run_instance(draw(rng), started, metrics);
    now = Clock::now();
    ++w.attempted;
    if (!ok) {
      ++w.failed;
      continue;
    }
    w.round.latency_ms.push_back(ms_between(issued, now));
    if (trace) {
      w.round.admit_ms.push_back(ms_between(issued, started));
      w.round.commit_ms.push_back(ms_between(started, now));
      w.msgs += metrics.messages_delivered;
      w.frames += metrics.messages_sent;
    }
  }
  w.last_done = now;
  return w;
}

}  // namespace

RunResult run_fig2_byzantine(const RunConfig& cfg) {
  RunResult r;
  Rng rng(cfg.seed);
  const int rounds = rounds_in(cfg.seconds, kRoundSeconds);
  const auto round_span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.seconds / rounds));
  // Reseeded every round from a split of `rng`, so round r runs the same
  // instances however many the workers finished in earlier rounds.
  std::vector<Rng> worker_rngs(kWorkers, Rng(0));

  // The workers live for the whole run; per round, the driver thread and
  // the workers meet at four points: start of set-up, end of set-up (the
  // driver then fixes the measuring window), start and end of measuring.
  std::barrier sync(static_cast<std::ptrdiff_t>(kWorkers) + 1);
  std::vector<char> warm_ok(kWorkers, 1);
  std::vector<WorkerOut> outs(kWorkers);
  Clock::time_point ready{};
  Clock::time_point deadline{};
  {
    std::vector<std::jthread> workers;
    for (unsigned i = 0; i < kWorkers; ++i) {
      workers.emplace_back([&, i] {
        for (int round = 0; round < rounds; ++round) {
          sync.arrive_and_wait();
          for (int w = 0; w < kWarmup; ++w) {
            Clock::time_point started;
            sim::Metrics metrics;
            warm_ok[i] = run_instance(draw(worker_rngs[i]), started,
                                      metrics) &&
                         warm_ok[i];
          }
          sync.arrive_and_wait();
          sync.arrive_and_wait();
          outs[i] = measure(worker_rngs[i], ready, deadline, cfg.trace);
          sync.arrive_and_wait();
        }
      });
    }

    for (int round = 0; round < rounds; ++round) {
      Rng round_rng = rng.split();
      for (Rng& worker_rng : worker_rngs) {
        worker_rng = round_rng.split();
      }
      const Clock::time_point t0 = Clock::now();
      sync.arrive_and_wait();
      sync.arrive_and_wait();  // every worker has warmed up
      ready = Clock::now();
      deadline = ready + round_span;
      const double cpu0 = cpu_seconds_now();
      sync.arrive_and_wait();
      sync.arrive_and_wait();  // every worker has measured
      r.cpu_seconds += cpu_seconds_now() - cpu0;

      Round& out = r.rounds.emplace_back();
      out.setup_seconds = std::chrono::duration<double>(ready - t0).count();
      Clock::time_point done = ready;
      for (const WorkerOut& w : outs) {
        done = std::max(done, w.last_done);
        out.latency_ms.insert(out.latency_ms.end(),
                              w.round.latency_ms.begin(),
                              w.round.latency_ms.end());
        out.admit_ms.insert(out.admit_ms.end(), w.round.admit_ms.begin(),
                            w.round.admit_ms.end());
        out.commit_ms.insert(out.commit_ms.end(), w.round.commit_ms.begin(),
                             w.round.commit_ms.end());
        r.attempted += w.attempted;
        r.failed += w.failed;
        r.msgs += w.msgs;
        r.frames += w.frames;
        r.ops_total += w.attempted;
      }
      out.measured_seconds =
          std::chrono::duration<double>(done - ready).count();
    }
  }  // joins the workers
  for (const char ok : warm_ok) {
    r.correct = r.correct && ok != 0;
  }
  r.correct = r.correct && r.failed == 0;
  return r;
}

}  // namespace perfbench
