// X4 (engineering) — message complexity per phase, and the per-echo cost of
// absorbing it.
//
// The paper's protocols differ sharply in cost per phase:
//   Figure 1 / majority variant: each process broadcasts once -> O(n^2)
//     messages per phase;
//   Figure 2: each initial is echoed by everyone -> O(n^3);
//   reliable-broadcast-based protocols: O(n^3) per broadcast step.
// This bench measures messages-per-phase empirically and reports the
// scaling exponent between successive n. Because Figure 2's O(n^3) echo
// traffic all funnels through EchoEngine::handle(), the second half sweeps
// the engine's per-echo throughput across n ∈ {7, 31, 127, 301, 1001} —
// the series the flat quorum accounting (docs/PERF.md "Quorum accounting")
// is accountable to. The labelled `echo_path_n*` series in the --json report
// feed the CI regression gate (tools/check_bench_regression.py) against
// BENCH_BASELINE.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>

#include "adversary/scenario.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/echo_engine.hpp"
#include "core/messages.hpp"

namespace {

using namespace rcp;
using adversary::ProtocolKind;
using adversary::Scenario;

const std::uint32_t kRuns = bench::env_runs(15);

bench::ThroughputMeter meter;

double messages_per_phase(ProtocolKind protocol, std::uint32_t n) {
  const std::uint32_t k =
      protocol == ProtocolKind::fail_stop
          ? core::max_resilience(core::FaultModel::fail_stop, n)
          : core::max_resilience(core::FaultModel::malicious, n);
  Scenario s;
  s.protocol = protocol;
  s.params = {n, k};
  s.inputs = adversary::alternating_inputs(n);
  const auto r = bench::run_series(s, kRuns);
  meter.note(r);
  if (r.phases.mean() <= 0.0) {
    return 0.0;
  }
  return r.messages.mean() / r.phases.mean();
}

/// Drives `phases` full Figure 2 phases through one EchoEngine: every
/// origin's initial, the full n x n echo matrix, then the phase advance.
/// Returns the number of echoes handled.
std::uint64_t drive_echo_phases(core::EchoEngine& engine, std::uint32_t n,
                                Phase& t, std::uint64_t phases) {
  std::uint64_t echoes = 0;
  for (std::uint64_t i = 0; i < phases; ++i, ++t) {
    for (ProcessId origin = 0; origin < n; ++origin) {
      const Value v = origin % 2 != 0 ? Value::one : Value::zero;
      (void)engine.handle(
          origin,
          core::EchoProtocolMsg{
              .is_echo = false, .from = origin, .value = v, .phase = t});
      for (ProcessId echoer = 0; echoer < n; ++echoer) {
        (void)engine.handle(
            echoer,
            core::EchoProtocolMsg{
                .is_echo = true, .from = origin, .value = v, .phase = t});
        ++echoes;
      }
    }
    (void)engine.advance(t + 1);
  }
  return echoes;
}

/// One sweep point: steady-state per-echo throughput at system size n.
void echo_path_point(Table& table, std::uint32_t n) {
  const core::ConsensusParams params{
      n, core::max_resilience(core::FaultModel::malicious, n)};
  core::EchoEngine engine(params);
  const std::uint64_t per_phase = static_cast<std::uint64_t>(n) * n;
  // Scale the workload with RCP_BENCH_RUNS so perf-smoke (2 runs) stays
  // fast while default runs measure millions of echoes per point.
  const std::uint64_t target = static_cast<std::uint64_t>(kRuns) * 130'000;
  const std::uint64_t phases = std::max<std::uint64_t>(2, target / per_phase);
  Phase t = 0;
  (void)drive_echo_phases(engine, n, t, phases / 4 + 1);  // warm
  const bench::Stopwatch timer;
  const std::uint64_t echoes = drive_echo_phases(engine, n, t, phases);
  const double secs = timer.seconds();
  const double per_sec = secs > 0.0 ? static_cast<double>(echoes) / secs : 0.0;
  table.row()
      .cell(static_cast<std::uint64_t>(n))
      .cell(echoes)
      .cell(per_sec, 0)
      .cell(per_sec > 0.0 ? 1e9 / per_sec : 0.0, 1)
      .cell(static_cast<std::uint64_t>(engine.memory_bytes()));
  meter.note_labeled("echo_path_n" + std::to_string(n), echoes, secs);
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "X4: messages per phase vs n (" << kRuns
            << " seeds, alternating inputs, k at each protocol's bound)\n\n";
  const std::uint32_t sizes[] = {4, 8, 16, 32};
  for (const auto protocol :
       {ProtocolKind::fail_stop, ProtocolKind::majority,
        ProtocolKind::malicious}) {
    Table table({"n", "msgs/phase", "growth vs previous n",
                 "implied exponent"});
    double prev = 0.0;
    for (const std::uint32_t n : sizes) {
      const double mpp = messages_per_phase(protocol, n);
      table.row().cell(static_cast<std::uint64_t>(n)).cell(mpp, 0);
      if (prev > 0.0) {
        const double growth = mpp / prev;
        table.cell(growth, 2).cell(std::log2(growth), 2);  // n doubles
      } else {
        table.cell("-").cell("-");
      }
      prev = mpp;
    }
    std::cout << to_string(protocol) << ":\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected shape: the fail-stop and majority tables show an "
               "implied exponent near 2 (quadratic broadcasts); Figure 2 "
               "shows near 3 (every initial echoed by everyone).\n\n";

  std::cout << "Echo-path n-sweep: EchoEngine steady-state per-echo cost "
               "(flat quorum accounting; k at the malicious bound)\n";
  Table echo_table({"n", "echoes", "echoes/sec", "ns/echo", "table bytes"});
  for (const std::uint32_t n : {7u, 31u, 127u, 301u, 1001u}) {
    echo_path_point(echo_table, n);
  }
  echo_table.print(std::cout);
  std::cout << "Expected shape: ns/echo stays flat as n grows (O(1) bitset "
               "dedup + tally), table bytes grow ~n^2 with the dedup "
               "window.\n";
  return bench::finish(meter, "x4_complexity", argc, argv);
}
