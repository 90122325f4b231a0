// What one benchmark run measures, shared by the workloads and main.cpp.
//
// Every workload treats its unit of work as an *op* that passes three
// instants: issue (the client hands it over), start (the system begins
// work on it) and done (its result is committed). A run is a sequence of
// rounds; each round sets up (KV builds the system afresh; Figure 2 keeps
// its workers) and warms up, timed together, then measures ops until its
// share of the run time is used. The workload returns raw samples;
// main.cpp turns them into metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Record the per-layer samples (admit/commit split, CPU, counters).
  bool trace = false;
};

/// One round: set up and warmed up, then measured.
struct Round {
  double setup_seconds = 0;     ///< build (KV only) and warm-up
  double measured_seconds = 0;  ///< end of warm-up to the last op done
  std::vector<double> latency_ms;  ///< issue -> done, per measured op
  // ---- recorded with --trace 1 only ----------------------------------
  std::vector<double> admit_ms;   ///< issue -> start, per measured op
  std::vector<double> commit_ms;  ///< start -> done, per measured op
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< measured ops
  std::uint64_t failed = 0;     ///< measured ops that never completed
  std::vector<Round> rounds;

  // ---- reported with --trace 1: totals over all rounds ----------------
  double cpu_seconds = 0;         ///< process CPU while serving ops
  /// Ops served in that CPU time, the base of every per-op figure: KV
  /// counts warm-up writes too, Figure 2 measured instances only.
  std::uint64_t ops_total = 0;
  std::uint64_t msgs = 0;         ///< messages handed to protocol code
  std::uint64_t frames = 0;       ///< transport frames (sim: sends)
  std::uint64_t retransmits = 0;  ///< go-back-N resends (sim: none)

  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

/// Process CPU time (user + system, all threads) in seconds.
[[nodiscard]] double cpu_seconds_now();
/// CPU time of the calling thread (user + system) in seconds.
[[nodiscard]] double thread_cpu_seconds_now();

/// How many rounds of about `round_seconds` fit in a run of `seconds`.
[[nodiscard]] inline int rounds_in(double seconds, double round_seconds) {
  return seconds <= round_seconds
             ? 1
             : static_cast<int>(seconds / round_seconds + 0.5);
}

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Open-loop KV latency (not a gated workload: too noisy for its bound).
[[nodiscard]] RunResult run_kv_open_loop(const RunConfig& cfg);
[[nodiscard]] RunResult run_kv_single_loop(const RunConfig& cfg);
/// Closed-loop capacity of the kv_open_loop shape (not a gated workload).
[[nodiscard]] RunResult run_kv_capacity(const RunConfig& cfg);
[[nodiscard]] RunResult run_fig2_byzantine(const RunConfig& cfg);

}  // namespace perfbench
