// Micro-benchmarks (google-benchmark): the primitives every experiment
// rests on — RNG, codecs, echo acceptance, protocol steps, chain solves,
// and the simulator hot path (broadcast fan-out, raw step dispatch).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "adversary/scenario.hpp"
#include "analysis/distributions.hpp"
#include "analysis/failstop_chain.hpp"
#include "analysis/markov.hpp"
#include "analysis/matrix.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/bitops.hpp"
#include "core/echo_engine.hpp"
#include "core/failstop.hpp"
#include "core/malicious.hpp"
#include "core/messages.hpp"
#include "extensions/rb_engine.hpp"
#include "extensions/reliable_broadcast.hpp"
#include "runtime/parallel_series.hpp"
#include "runtime/scenario_series.hpp"
#include "runtime/seeding.hpp"
#include "service/kv_store.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace rcp;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngBelow(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(7));
  }
}
BENCHMARK(BM_RngBelow);

void BM_EncodeDecodeFailStopMsg(benchmark::State& state) {
  const core::FailStopMsg msg{.phase = 12, .value = Value::one,
                              .cardinality = 9};
  for (auto _ : state) {
    const Bytes buf = msg.encode();
    benchmark::DoNotOptimize(core::FailStopMsg::decode(buf));
  }
}
BENCHMARK(BM_EncodeDecodeFailStopMsg);

void BM_EncodeDecodeEchoMsg(benchmark::State& state) {
  const core::EchoProtocolMsg msg{.is_echo = true, .from = 3,
                                  .value = Value::zero, .phase = 40};
  for (auto _ : state) {
    const Bytes buf = msg.encode();
    benchmark::DoNotOptimize(core::EchoProtocolMsg::decode(buf));
  }
}
BENCHMARK(BM_EncodeDecodeEchoMsg);

void BM_EncodeDecodeMajorityMsg(benchmark::State& state) {
  const core::MajorityMsg msg{.phase = 17, .value = Value::one};
  for (auto _ : state) {
    const Bytes buf = msg.encode();
    benchmark::DoNotOptimize(core::MajorityMsg::decode(buf));
  }
}
BENCHMARK(BM_EncodeDecodeMajorityMsg);

void BM_EncodeDecodeRbMsg(benchmark::State& state) {
  const ext::RbMsg msg{.kind = ext::RbMsg::Kind::ready, .value = Value::one};
  for (auto _ : state) {
    const Bytes buf = msg.encode();
    benchmark::DoNotOptimize(ext::RbMsg::decode(buf));
  }
}
BENCHMARK(BM_EncodeDecodeRbMsg);

void BM_EncodeDecodeRbxMsg(benchmark::State& state) {
  const ext::RbxMsg msg{.kind = ext::RbxMsg::Kind::echo, .origin = 5,
                        .tag = 92, .value = 1};
  for (auto _ : state) {
    const Bytes buf = msg.encode();
    benchmark::DoNotOptimize(ext::RbxMsg::decode(buf));
  }
}
BENCHMARK(BM_EncodeDecodeRbxMsg);

/// Rebroadcasts every received payload to all n processes: each atomic step
/// is one delivery plus one n-message fan-out, which isolates the
/// broadcast/mailbox path of the simulator.
class FanoutProcess final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    ctx.broadcast(core::EchoProtocolMsg{.is_echo = false,
                                        .from = ctx.self(),
                                        .value = Value::one,
                                        .phase = 0}
                      .encode());
  }
  void on_message(sim::Context& ctx, const sim::Envelope& env) override {
    ctx.broadcast(env.payload);
  }
};

void BM_BroadcastFanout(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  // Warm past the vector-growth phase (mailbox capacities settle above the
  // sizes the measured window reaches) so the timed region is the
  // steady-state fan-out path, not one-time container growth.
  constexpr int kWarmupSteps = 1500;
  constexpr int kSteps = 256;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<sim::Process>> procs;
    for (ProcessId p = 0; p < n; ++p) {
      procs.push_back(std::make_unique<FanoutProcess>());
    }
    sim::Simulation s(sim::SimConfig{.n = n, .seed = 3}, std::move(procs));
    s.start();
    for (int i = 0; i < kWarmupSteps && s.step(); ++i) {
    }
    state.ResumeTiming();
    for (int i = 0; i < kSteps && s.step(); ++i) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps * n);
}
BENCHMARK(BM_BroadcastFanout)->Arg(7)->Arg(31)->Arg(101);

/// Requeues one self-addressed message per delivery, keeping every mailbox
/// at a steady one-message depth: measures raw step dispatch (eligible-set
/// maintenance, scheduler pick, mailbox take, context setup) with no
/// protocol work and no fan-out.
class SelfRefillProcess final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    ctx.send(ctx.self(), core::MajorityMsg{.phase = 0, .value = Value::zero}
                             .encode());
  }
  void on_message(sim::Context& ctx, const sim::Envelope& env) override {
    ctx.send(ctx.self(), env.payload);
  }
};

void BM_StepDispatch(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr int kSteps = 256;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<sim::Process>> procs;
    for (ProcessId p = 0; p < n; ++p) {
      procs.push_back(std::make_unique<SelfRefillProcess>());
    }
    sim::Simulation s(sim::SimConfig{.n = n, .seed = 4}, std::move(procs));
    s.start();
    state.ResumeTiming();
    for (int i = 0; i < kSteps && s.step(); ++i) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_StepDispatch)->Arg(7)->Arg(31)->Arg(101);

// ---------------------------------------------------------------------------
// Bit-span kernels (core/bitops.hpp): the word-parallel substrate under the
// quorum primitives. Each bench runs the *dispatched* entry point, so the
// numbers reflect whatever backend (scalar or AVX2) the host resolved at
// startup; items/sec counts 64-bit words, and the regression gate covers
// these series via the BM_Bitops prefix (tools/check_bench_regression.py).
// Arg is the span length in words: 16 (one BitRows row at n=1001), 1024
// and 65536 (bulk window scans).

core::bitops::AlignedVector<std::uint64_t> random_words(std::size_t count) {
  Rng rng(0x5eed);
  core::bitops::AlignedVector<std::uint64_t> words(count, 0);
  for (auto& w : words) {
    w = rng.next();
  }
  return words;
}

void BM_BitopsPopcountWords(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto words = random_words(count);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::bitops::popcount_words(
        std::span<const std::uint64_t>(words.data(), words.size())));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BitopsPopcountWords)->Arg(16)->Arg(1024)->Arg(65536);

void BM_BitopsFillWords(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  core::bitops::AlignedVector<std::uint64_t> words(count, 0);
  for (auto _ : state) {
    core::bitops::fill_words(std::span<std::uint64_t>(words.data(), count), 0);
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BitopsFillWords)->Arg(16)->Arg(1024)->Arg(65536);

void BM_BitopsOrWords(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto src = random_words(count);
  core::bitops::AlignedVector<std::uint64_t> dst(count, 0);
  for (auto _ : state) {
    core::bitops::or_words(
        std::span<std::uint64_t>(dst.data(), count),
        std::span<const std::uint64_t>(src.data(), count));
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BitopsOrWords)->Arg(16)->Arg(1024)->Arg(65536);

void BM_BitopsForEachSetBit(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto words = random_words(count);  // ~50% density
  for (auto _ : state) {
    std::uint64_t sum = 0;
    core::bitops::for_each_set_bit(
        std::span<const std::uint64_t>(words.data(), count),
        [&sum](std::size_t bit) { sum += bit; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BitopsForEachSetBit)->Arg(16)->Arg(1024);

void BM_EchoEngineAcceptPath(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::ConsensusParams params{n, (n - 1) / 3};
  for (auto _ : state) {
    core::EchoEngine engine(params);
    for (ProcessId echoer = 0; echoer < n; ++echoer) {
      benchmark::DoNotOptimize(engine.handle(
          echoer,
          core::EchoProtocolMsg{.is_echo = true, .from = 0,
                                .value = Value::one, .phase = 0},
          0));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EchoEngineAcceptPath)->Arg(7)->Arg(31)->Arg(127)->Arg(301);

// Steady state: one engine absorbs full n x n echo matrices phase after
// phase (dedup bitsets recycled by advance(), counters flat). items/sec is
// echoes/sec — the number tools/check_bench_regression.py gates on.
void BM_EchoEngineSteadyState(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::ConsensusParams params{n, (n - 1) / 3};
  core::EchoEngine engine(params);
  Phase t = 0;
  for (auto _ : state) {
    for (ProcessId origin = 0; origin < n; ++origin) {
      for (ProcessId echoer = 0; echoer < n; ++echoer) {
        benchmark::DoNotOptimize(engine.handle(
            echoer,
            core::EchoProtocolMsg{.is_echo = true, .from = origin,
                                  .value = Value::one, .phase = t},
            t));
      }
    }
    (void)engine.advance(++t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n);
}
BENCHMARK(BM_EchoEngineSteadyState)
    ->Arg(7)
    ->Arg(31)
    ->Arg(127)
    ->Arg(301)
    ->Arg(1001);

// Reliable-broadcast ingest, the KV service's per-message layer: every
// origin runs full instances (its initial, n echoes, n readies, then
// retire) through one RbEngine, with a rolling window of 64 live instances
// per origin — an instance opens (initial and echoes) 63 instances before
// its readies arrive. items/sec is handled messages per second.
void BM_RbEngineIngest(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint64_t kWindow = 64;
  const core::ConsensusParams params{n, (n - 1) / 3};
  ext::RbEngine engine(params, static_cast<std::uint32_t>(n * kWindow),
                       ext::kRbValueAny);
  const auto feed = [&engine, n](ext::RbxMsg::Kind kind, ProcessId origin,
                                 std::uint64_t tag) {
    const ext::RbxMsg msg{
        .kind = kind, .origin = origin, .tag = tag, .value = tag + 1};
    if (kind == ext::RbxMsg::Kind::initial) {
      benchmark::DoNotOptimize(engine.handle(origin, msg));
      return;
    }
    for (ProcessId sender = 0; sender < n; ++sender) {
      benchmark::DoNotOptimize(engine.handle(sender, msg));
    }
  };
  const auto open = [&feed, n](std::uint64_t tag) {
    for (ProcessId origin = 0; origin < n; ++origin) {
      feed(ext::RbxMsg::Kind::initial, origin, tag);
      feed(ext::RbxMsg::Kind::echo, origin, tag);
    }
  };
  std::uint64_t tag = 0;
  for (; tag + 1 < kWindow; ++tag) {
    open(tag);
  }
  for (auto _ : state) {
    open(tag);
    const std::uint64_t closing = tag + 1 - kWindow;
    for (ProcessId origin = 0; origin < n; ++origin) {
      feed(ext::RbxMsg::Kind::ready, origin, closing);
      engine.retire_through(origin, closing);
    }
    ++tag;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          (2 * n + 1));
}
BENCHMARK(BM_RbEngineIngest)->Arg(7)->Arg(31)->Arg(127);

// The batch decoder on the same path: validate a whole RbxBatch, then read
// every entry in place. items/sec is entries per second.
void BM_RbxBatchView(benchmark::State& state) {
  const auto count = static_cast<std::uint32_t>(state.range(0));
  std::vector<ext::RbxMsg> msgs;
  for (std::uint32_t i = 0; i < count; ++i) {
    msgs.push_back(ext::RbxMsg{.kind = ext::RbxMsg::Kind::echo,
                               .origin = i % 7,
                               .tag = i,
                               .value = 0x0123456789abcdefULL ^ i});
  }
  const Bytes frame = ext::RbxBatch::encode(msgs);
  for (auto _ : state) {
    const ext::RbxBatch::View batch(frame, ext::kRbValueAny);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const ext::RbxMsg m = batch[i];
      sum += m.origin + m.tag + m.value;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count);
}
BENCHMARK(BM_RbxBatchView)->Arg(64)->Arg(1024);

// Replica apply, the KV service's last layer: random-key writes to the
// KvStore of an n=7, 4-shard replica (28 streams), whose table holds
// 28 x 8,192 live keys (8 MiB of slots, past any one core's L2), so most
// writes miss the cache. Arg 1 applies each write with apply(); arg 256
// hands apply_all() spans of 256 writes, about what one replica step
// applies under kv_single_loop load. items/sec is applied writes per
// second (docs/PERF.md "KV apply cost").
void BM_KvStoreApply(benchmark::State& state) {
  const auto span = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kStreams = 28;
  constexpr std::uint32_t kKeysPerStream = 8192;
  constexpr std::size_t kChunk = 256;
  service::KvStore store(kStreams);
  std::vector<std::uint64_t> seq(kStreams, 0);
  for (std::uint32_t key = 0; key < kKeysPerStream; ++key) {
    for (std::uint32_t stream = 0; stream < kStreams; ++stream) {
      store.apply(stream, seq[stream]++, service::KvOp{key, key});
    }
  }
  Rng rng(5);
  std::vector<service::KvStore::Write> writes(std::size_t{1} << 16);
  for (service::KvStore::Write& w : writes) {
    w.stream = static_cast<std::uint32_t>(rng.below(kStreams));
    w.seq = seq[w.stream]++;
    w.op = service::KvOp{static_cast<std::uint32_t>(rng.below(kKeysPerStream)),
                         static_cast<std::uint32_t>(rng.next())};
  }
  std::size_t at = 0;
  for (auto _ : state) {
    const std::span<const service::KvStore::Write> chunk(writes.data() + at,
                                                         kChunk);
    if (span == 1) {
      for (const service::KvStore::Write& w : chunk) {
        store.apply(w.stream, w.seq, w.op);
      }
    } else {
      for (std::size_t i = 0; i < kChunk; i += span) {
        store.apply_all(chunk.subspan(i, span));
      }
    }
    at = (at + kChunk) % writes.size();
  }
  benchmark::DoNotOptimize(store.digest());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_KvStoreApply)->Arg(1)->Arg(256);

void BM_SimulationStepFailStop(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t k = (n - 1) / 2;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<std::unique_ptr<sim::Process>> procs;
    for (ProcessId p = 0; p < n; ++p) {
      procs.push_back(core::FailStopConsensus::make(
          {n, k}, p % 2 == 0 ? Value::zero : Value::one));
    }
    sim::Simulation s(sim::SimConfig{.n = n, .seed = 5}, std::move(procs));
    s.start();
    state.ResumeTiming();
    for (int i = 0; i < 100 && s.step(); ++i) {
    }
  }
}
BENCHMARK(BM_SimulationStepFailStop)->Arg(7)->Arg(25);

void BM_FullConsensusRunMalicious(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t k = (n - 1) / 3;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    std::vector<std::unique_ptr<sim::Process>> procs;
    for (ProcessId p = 0; p < n; ++p) {
      procs.push_back(core::MaliciousConsensus::make(
          {n, k}, p % 2 == 0 ? Value::zero : Value::one));
    }
    sim::Simulation s(sim::SimConfig{.n = n, .seed = seed++},
                      std::move(procs));
    benchmark::DoNotOptimize(s.run());
  }
}
BENCHMARK(BM_FullConsensusRunMalicious)->Arg(4)->Arg(7)->Arg(10);

// The delivery path at the perfbench fig2_byzantine instance shape: n
// processes sized for k = (n-1)/3, two equivocators at fixed seats (one in
// each half of the id-space split they lie along), random inputs, uniform
// delivery, one full instance per iteration. items/sec is delivered
// messages per second — the per-delivery cost (step loop, mailbox, RNG,
// codec, echo quorums) that tools/check_bench_regression.py gates on.
void BM_Fig2ByzantineDelivery(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(7);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    adversary::Scenario s;
    s.protocol = adversary::ProtocolKind::malicious;
    s.params = core::ConsensusParams{n, (n - 1) / 3};
    s.inputs = adversary::random_inputs(n, rng);
    s.byzantine_ids = {3, n - 4};
    s.byzantine_kind = adversary::ByzantineKind::equivocator;
    s.seed = rng.next();
    const auto sim = adversary::build(s);
    benchmark::DoNotOptimize(sim->run());
    delivered += sim->metrics().messages_delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_Fig2ByzantineDelivery)->Arg(16);

void BM_HypergeometricTail(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::hypergeometric_tail_greater(300, 150, 200, 100));
  }
}
BENCHMARK(BM_HypergeometricTail);

void BM_FailStopChainBuildAndSolve(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    analysis::FailStopChain chain(n);
    benchmark::DoNotOptimize(chain.expected_phases_from_balanced());
  }
}
BENCHMARK(BM_FailStopChainBuildAndSolve)->Arg(30)->Arg(120);

void BM_TrialSeed(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::trial_seed(42, i++));
  }
}
BENCHMARK(BM_TrialSeed);

void BM_RunningStatsMerge(benchmark::State& state) {
  const auto samples = static_cast<std::uint64_t>(state.range(0));
  RunningStats a;
  RunningStats b;
  Rng rng(11);
  for (std::uint64_t i = 0; i < samples; ++i) {
    a.add(rng.uniform01());
    b.add(rng.uniform01());
  }
  for (auto _ : state) {
    RunningStats merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_RunningStatsMerge)->Arg(32)->Arg(4096);

// Whole-series throughput through the parallel runtime: the fail-stop
// scenario series at 1 thread vs default_threads(), same base seed. The
// aggregates are identical by construction; only wall time differs.
void BM_ScenarioSeries(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  adversary::Scenario s;
  s.protocol = adversary::ProtocolKind::fail_stop;
  s.params = {7, 3};
  s.inputs = adversary::alternating_inputs(7);
  runtime::SeriesConfig config;
  config.threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runtime::run_scenario_series(s, 16, 1, {}, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_ScenarioSeries)->Arg(1)->Arg(0)  // 0 -> default_threads()
    ->Unit(benchmark::kMillisecond);

void BM_MatrixInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  analysis::Matrix m(n, n, 0.0);
  Rng rng(9);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m.at(i, j) = rng.uniform01() + (i == j ? static_cast<double>(n) : 0.0);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::inverse(m));
  }
}
BENCHMARK(BM_MatrixInverse)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
