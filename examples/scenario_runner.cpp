// Scenario runner: drive any protocol/adversary combination from the
// command line, optionally recording the execution as an rcp-plan-v1 plan
// for exact replay.
//
//   $ ./scenario_runner --protocol fig2 --n 10 --k 3 --ones 5
//         --adversary equivocator --seed 7 --record run.plan
//   (one line)
//   $ ../tools/rcp-fuzz --replay run.plan
//
// Options:
//   --protocol fig1|fig2|majority   (default fig2)
//   --n N --k K                     (default n=7, k = max for the protocol)
//   --ones M                        initial 1-inputs (default n/2)
//   --adversary none|silent|equivocator|balancer|babbler  (default none)
//   --crashes C                     staggered fail-stop crashes (default 0)
//   --seed S                        (default 1)
//   --max-steps X                   (default 2'000'000)
//   --record FILE                   write the run as an rcp-plan-v1 plan
//                                   whose expect line pins its digests
//                                   (replay: rcp-fuzz --replay FILE);
//                                   refused (exit 2) past the plan caps:
//                                   n <= 64, max-steps <= 5M, tape <= 2^16
//   --runs R                        Monte-Carlo series of R trials
//                                   (default 1: single run shown in full)
//   --threads N                     worker threads for --runs > 1
//                                   (default: hardware concurrency)
//   --progress                      live completed/total + ETA (needs
//                                   --runs > 1)
//   --json FILE                     rcp-bench-v1 report (same schema as the
//                                   bench_e* harnesses; see docs/PERF.md)
//   --list-scenarios                enumerate the built-in digest-pinned
//                                   scenarios and the golden files under
//                                   --data-dir (default: the checked-in
//                                   tests/data), then exit
//   --data-dir DIR                  where --list-scenarios looks for
//                                   *.plan goldens
//
// The RCP_BENCH_RUNS environment variable overrides the trial count like
// it does for the bench harnesses (the perf-smoke ctest label sets it
// to 2), except when --record pins a single execution.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "adversary/scenario.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "fuzz/digest.hpp"
#include "fuzz/plan.hpp"
#include "fuzz/tape.hpp"
#include "runtime/progress.hpp"
#include "runtime/scenario_series.hpp"
#include "runtime/thread_control.hpp"

namespace {

using namespace rcp;

struct Options {
  adversary::ProtocolKind protocol = adversary::ProtocolKind::malicious;
  std::uint32_t n = 7;
  std::optional<std::uint32_t> k;
  std::optional<std::uint32_t> ones;
  std::optional<adversary::ByzantineKind> byzantine;
  std::uint32_t crashes = 0;
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 2'000'000;
  std::string record_path;
  std::uint32_t runs = 1;
  std::uint32_t threads = 0;  // 0: runtime::default_threads()
  bool progress = false;
  std::string json_path;
  bool list_scenarios = false;
  std::string data_dir = RCP_GOLDEN_DATA_DIR;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--protocol fig1|fig2|majority] [--n N] [--k K] [--ones M]\n"
               "       [--adversary none|silent|equivocator|balancer|babbler]\n"
               "       [--crashes C] [--seed S] [--max-steps X]\n"
               "       [--record FILE]\n"
               "       [--runs R] [--threads N] [--progress] [--json FILE]\n"
               "       [--list-scenarios] [--data-dir DIR]\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (flag == "--protocol") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      if (std::strcmp(v, "fig1") == 0) {
        opt.protocol = adversary::ProtocolKind::fail_stop;
      } else if (std::strcmp(v, "fig2") == 0) {
        opt.protocol = adversary::ProtocolKind::malicious;
      } else if (std::strcmp(v, "majority") == 0) {
        opt.protocol = adversary::ProtocolKind::majority;
      } else {
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
      if (std::strcmp(v, "none") == 0) {
        opt.byzantine.reset();
      } else if (std::strcmp(v, "silent") == 0) {
        opt.byzantine = adversary::ByzantineKind::silent;
      } else if (std::strcmp(v, "equivocator") == 0) {
        opt.byzantine = adversary::ByzantineKind::equivocator;
      } else if (std::strcmp(v, "balancer") == 0) {
        opt.byzantine = adversary::ByzantineKind::balancer;
      } else if (std::strcmp(v, "babbler") == 0) {
        opt.byzantine = adversary::ByzantineKind::babbler;
      } else {
        return std::nullopt;
      }
    } else if (flag == "--crashes") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.crashes = static_cast<std::uint32_t>(std::stoul(v));
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.seed = std::stoull(v);
    } else if (flag == "--max-steps") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.max_steps = std::stoull(v);
    } else if (flag == "--record") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.record_path = v;
    } else if (flag == "--runs") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.runs = static_cast<std::uint32_t>(std::stoul(v));
    } else if (flag == "--threads") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.threads = static_cast<std::uint32_t>(std::stoul(v));
    } else if (flag == "--progress") {
      opt.progress = true;
    } else if (flag == "--list-scenarios") {
      opt.list_scenarios = true;
    } else if (flag == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.data_dir = v;
    } else if (flag == "--json") {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      opt.json_path = v;
    } else {
      return std::nullopt;
    }
  }
  return opt;
}

/// The --runs > 1 path: a Monte-Carlo series sharded across the trial
/// pool, seeds derived per trial from --seed, aggregates printed at the
/// end. Recording is single-execution by nature and is rejected.
int run_series_mode(const Options& opt, const adversary::Scenario& s,
                    std::uint32_t k, int argc, char** argv) {
  runtime::SeriesConfig config;
  config.threads = opt.threads;
  const std::uint32_t threads =
      config.threads == 0 ? runtime::default_threads() : config.threads;

  runtime::ThreadControl control;
  std::optional<runtime::ProgressReporter> reporter;
  if (opt.progress) {
    reporter.emplace(control, std::cerr);
  }
  const runtime::SeriesResult r =
      runtime::run_scenario_series(s, opt.runs, opt.seed, {}, config,
                                   &control);
  reporter.reset();  // joins the reporter and finishes the status line

  std::cout << "protocol : " << to_string(opt.protocol) << "  n=" << opt.n
            << " k=" << k << " base-seed=" << opt.seed
            << " runs=" << opt.runs << " threads=" << threads << "\n";
  Table table({"quantity", "value"});
  table.row().cell("all decided").cell(
      std::to_string(r.decided) + "/" + std::to_string(r.runs));
  table.row().cell("agreement held").cell(
      std::to_string(r.agreed) + "/" + std::to_string(r.runs));
  table.row().cell("decided 1").cell(
      std::to_string(r.decided_one) + "/" + std::to_string(r.runs));
  table.row().cell("phases (mean/max)").cell(
      format_double(r.phases.mean(), 2) + " / " +
      format_double(r.phases.max(), 0));
  table.row().cell("steps (mean)").cell(format_double(r.steps.mean(), 0));
  table.row().cell("messages (mean)").cell(
      format_double(r.messages.mean(), 0));
  table.row().cell("wall seconds").cell(format_double(r.wall_seconds, 3));
  table.row().cell("trials/sec").cell(format_double(r.trials_per_sec(), 1));
  table.print(std::cout);

  bench::ThroughputMeter meter;
  meter.note(r);
  const int status = bench::finish(meter, "scenario_runner", argc, argv);
  if (status != 0) {
    return status;
  }
  return r.agreed == r.runs ? 0 : 1;
}

/// --list-scenarios: the built-in digest-pinned registry plus every
/// golden file under the data directory, with enough shape information
/// to pick one for rcp-fuzz --replay.
int list_scenarios(const std::string& data_dir) {
  namespace fs = std::filesystem;

  std::cout << "built-in scenarios (digest-pinned; see "
               "tests/sim/trace_digest_test.cpp):\n";
  Table builtins({"name", "protocol", "n", "k", "summary"});
  for (const adversary::NamedScenario& named :
       adversary::builtin_scenarios()) {
    builtins.row()
        .cell(named.name)
        .cell(to_string(named.scenario.protocol))
        .cell(std::to_string(named.scenario.params.n))
        .cell(std::to_string(named.scenario.params.k))
        .cell(named.summary);
  }
  builtins.print(std::cout);

  std::vector<fs::path> plans;
  if (fs::is_directory(data_dir)) {
    for (const auto& entry : fs::directory_iterator(data_dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".plan") {
        plans.push_back(entry.path());
      }
    }
  } else {
    std::cerr << "warning: data dir not found: " << data_dir << "\n";
  }
  std::sort(plans.begin(), plans.end());

  std::cout << "\ngolden plans in " << data_dir
            << " (replay: rcp-fuzz --replay FILE, live: --nemesis FILE):\n";
  Table table({"file", "protocol", "n", "k", "byz", "tape", "expect"});
  for (const fs::path& path : plans) {
    std::ifstream in(path);
    try {
      fuzz::SchedulePlan plan = fuzz::SchedulePlan::parse(in);
      plan.validate();
      table.row()
          .cell(path.filename().string())
          .cell(fuzz::protocol_token(plan.spec.protocol))
          .cell(std::to_string(plan.spec.params.n))
          .cell(std::to_string(plan.spec.params.k))
          .cell(std::to_string(plan.spec.byzantine_ids.size()))
          .cell(std::to_string(plan.tape.size()))
          .cell(plan.expect.present
                    ? std::string(fuzz::status_token(plan.expect.status)) +
                          "@" + std::to_string(plan.expect.steps)
                    : "-");
    } catch (const std::exception& e) {
      std::cerr << path.filename().string() << ": " << e.what() << "\n";
      return 1;
    }
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed.has_value()) {
    return usage(argv[0]);
  }
  Options opt = *parsed;
  if (opt.list_scenarios) {
    return list_scenarios(opt.data_dir);
  }
  if (opt.record_path.empty()) {
    // RCP_BENCH_RUNS overrides the trial count (perf-smoke sets it to 2);
    // --record pins a single execution and is left alone.
    opt.runs = bench::env_runs(opt.runs);
  }

  const core::FaultModel model =
      opt.protocol == adversary::ProtocolKind::fail_stop
          ? core::FaultModel::fail_stop
          : core::FaultModel::malicious;
  const std::uint32_t k =
      opt.k.value_or(core::max_resilience(model, opt.n));

  adversary::Scenario s;
  s.protocol = opt.protocol;
  s.params = {opt.n, k};
  s.inputs = adversary::inputs_with_ones(opt.n, opt.ones.value_or(opt.n / 2));
  s.seed = opt.seed;
  s.max_steps = opt.max_steps;
  if (opt.byzantine.has_value()) {
    s.byzantine_kind = *opt.byzantine;
    for (std::uint32_t b = 0; b < k; ++b) {
      s.byzantine_ids.push_back(static_cast<ProcessId>(b * opt.n / k));
    }
  }
  if (opt.crashes > 0) {
    s.crashes = adversary::CrashPlan::staggered(opt.crashes);
  }

  if (opt.runs > 1) {
    if (!opt.record_path.empty()) {
      std::cerr << "--record captures one execution; it cannot be combined "
                   "with --runs > 1\n";
      return 2;
    }
    return run_series_mode(opt, s, k, argc, argv);
  }
  if (opt.progress) {
    std::cerr << "--progress requires --runs > 1\n";
    return 2;
  }

  std::unique_ptr<sim::Simulation> simulation;
  fuzz::SchedulePlan plan;
  fuzz::TapeSink tape;
  fuzz::DigestTrace digest;
  if (!opt.record_path.empty()) {
    // Refuse up front what the plan format cannot hold (n, max-steps).
    plan = fuzz::to_plan(s);
    try {
      plan.validate();
    } catch (const std::exception& e) {
      std::cerr << "--record: " << e.what() << "\n";
      return 2;
    }
    auto rec = fuzz::make_recording_policies();
    tape = rec.tape;
    simulation = adversary::build(s, std::move(rec.delivery),
                                  std::move(rec.scheduler));
    simulation->set_trace(&digest);
  } else {
    simulation = adversary::build(s);
  }

  const bench::Stopwatch watch;
  const sim::RunResult result = simulation->run();
  const double run_seconds = watch.seconds();
  std::cout << "protocol : " << to_string(opt.protocol) << "  n=" << opt.n
            << " k=" << k << " seed=" << opt.seed << "\n"
            << "status   : "
            << (result.status == sim::RunStatus::all_decided
                    ? "all correct processes decided"
                    : result.status == sim::RunStatus::quiescent
                          ? "quiescent (deadlock)"
                          : "step limit reached")
            << "\nsteps    : " << result.steps
            << "\nmessages : " << simulation->metrics().messages_sent
            << "\nphases   : " << simulation->metrics().max_phase << "\n";
  for (ProcessId p = 0; p < opt.n; ++p) {
    std::cout << "  p" << p << (simulation->is_faulty(p) ? " (faulty) " : "          ");
    if (const auto d = simulation->decision_of(p)) {
      std::cout << "decided " << *d;
    } else {
      std::cout << "undecided";
    }
    std::cout << "\n";
  }
  std::cout << "agreement: "
            << (simulation->agreement_holds() ? "holds" : "VIOLATED") << "\n";

  if (tape != nullptr) {
    if (tape->size() > fuzz::kMaxTape) {
      std::cerr << "--record: the run took " << tape->size()
                << " tape values, over the plan cap of " << fuzz::kMaxTape
                << "\n";
      return 2;
    }
    plan.tape = std::move(*tape);
    plan.expect = {.present = true,
                   .status = result.status,
                   .steps = result.steps,
                   .trace_digest = digest.hash(),
                   .state_digest = fuzz::state_digest(*simulation)};
    std::ofstream out(opt.record_path);
    out << plan.serialize();
    if (!out) {
      std::cerr << "--record: cannot write " << opt.record_path << "\n";
      return 2;
    }
    std::cout << "plan     : " << plan.tape.size() << " tape values -> "
              << opt.record_path << " (replay: rcp-fuzz --replay FILE)\n";
  }

  bench::ThroughputMeter meter;
  meter.note(1, run_seconds);
  const int status = bench::finish(meter, "scenario_runner", argc, argv);
  if (status != 0) {
    return status;
  }
  return simulation->agreement_holds() ? 0 : 1;
}
