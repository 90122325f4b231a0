// perfbench_driver — runs one benchmark workload and prints its result as
// one JSON line (the last line of standard output):
//
//   perfbench_driver --workload NAME --seed S --seconds T --trace 0|1
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (README.md lists both and what each should move). Exits 2 on bad
// arguments; a run whose outputs fail their checks still prints its result,
// with "correct": false.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

double cpu_seconds_now() { return cpu_seconds(RUSAGE_SELF); }

double thread_cpu_seconds_now() { return cpu_seconds(RUSAGE_THREAD); }

namespace {

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

double pct(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : rcp::quantile(samples, q);
}

double per(double amount, std::uint64_t base) {
  return base == 0 ? 0.0 : amount / static_cast<double>(base);
}

/// Mean of the middle half of the per-round figures (the median below four
/// rounds). The host's speed drifts over seconds; averaging the middle
/// rounds follows the drift smoothly, and trimming the outer quarters keeps
/// one round that caught a neighbour's burst from moving the result.
template <typename F>
double over_rounds(const RunResult& r, F&& f) {
  std::vector<double> values;
  for (const Round& round : r.rounds) {
    values.push_back(f(round));
  }
  if (values.size() < 4) {
    return pct(values, 0.50);
  }
  std::sort(values.begin(), values.end());
  const std::size_t trim = values.size() / 4;
  double sum = 0;
  for (std::size_t i = trim; i < values.size() - trim; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * trim);
}

/// A percentile of each round's samples, combined over the rounds.
double per_round(const RunResult& r, std::vector<double> Round::*samples,
                 double q) {
  return over_rounds(r, [&](const Round& x) { return pct(x.*samples, q); });
}

double ops_per_s(const Round& round) {
  return round.measured_seconds > 0
             ? static_cast<double>(round.latency_ms.size()) /
                   round.measured_seconds
             : 0.0;
}

std::vector<Metric> end_to_end(const RunResult& r) {
  return {
      {"p50_ms", "ms", per_round(r, &Round::latency_ms, 0.50)},
      {"p90_ms", "ms", per_round(r, &Round::latency_ms, 0.90)},
      {"ops_per_s", "1/s", over_rounds(r, ops_per_s)},
      {"setup_s", "s",
       over_rounds(r, [](const Round& x) { return x.setup_seconds; })},
  };
}

std::vector<Metric> per_layer(const RunResult& r) {
  return {
      {"admit_p50_ms", "ms", per_round(r, &Round::admit_ms, 0.50)},
      {"commit_p50_ms", "ms", per_round(r, &Round::commit_ms, 0.50)},
      {"commit_p99_ms", "ms", per_round(r, &Round::commit_ms, 0.99)},
      {"cpu_us_per_op", "us", per(r.cpu_seconds * 1e6, r.ops_total)},
      {"msgs_per_op", "count",
       per(static_cast<double>(r.msgs), r.ops_total)},
      {"frames_per_op", "count",
       per(static_cast<double>(r.frames), r.ops_total)},
      {"retransmits_per_kop", "count",
       per(static_cast<double>(r.retransmits) * 1000, r.ops_total)},
  };
}

void print_result(const RunResult& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fputs("usage: perfbench_driver --workload "
             "kv_open_loop|kv_single_loop|fig2_byzantine|kv_capacity "
             "--seed S "
             "--seconds T --trace 0|1\n",
             stderr);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunConfig cfg;
  if (argc % 2 == 0) {
    return usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
      continue;
    }
    char* end = nullptr;
    const unsigned long long number = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-') {
      return usage();
    }
    if (flag == "--seed") {
      cfg.seed = number;
    } else if (flag == "--seconds" && number > 0) {
      cfg.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && number <= 1) {
      cfg.trace = number == 1;
    } else {
      return usage();
    }
  }

  RunResult r;
  if (workload == "kv_open_loop") {
    r = run_kv_open_loop(cfg);
  } else if (workload == "kv_single_loop") {
    r = run_kv_single_loop(cfg);
  } else if (workload == "fig2_byzantine") {
    r = run_fig2_byzantine(cfg);
  } else if (workload == "kv_capacity") {
    r = run_kv_capacity(cfg);
  } else {
    return usage();
  }
  bool any_samples = false;
  for (const Round& round : r.rounds) {
    any_samples = any_samples || !round.latency_ms.empty();
    std::printf("round: setup %.6f s, %zu ops in %.6f s (%.1f/s), "
                "p50 %.4f ms, p99 %.4f ms\n",
                round.setup_seconds, round.latency_ms.size(),
                round.measured_seconds, ops_per_s(round),
                pct(round.latency_ms, 0.50), pct(round.latency_ms, 0.99));
  }
  if (!any_samples) {
    r.correct = false;
  }
  for (const std::string& note : r.notes) {
    std::printf("%s\n", note.c_str());
  }
  print_result(r, cfg.trace ? per_layer(r) : end_to_end(r));
  return 0;
}
