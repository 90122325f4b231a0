// The simulation driver: executes the paper's asynchronous system model.
//
// A Simulation owns n processes, their message buffers, a delivery policy
// (resolving the nondeterministic receive choice) and a scheduler policy
// (resolving the step interleaving). Each step() performs one atomic step:
// pick a process, give it one message or phi, let it compute and send.
//
// Fault injection: crash(p) kills a process between steps (fail-stop: "the
// death of a process occurs without warning messages"); mark_faulty(p)
// excludes a Byzantine process from the termination condition without
// killing it. Crashes can be scheduled by global step or by protocol phase.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/process.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/delivery.hpp"
#include "sim/mailbox.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace rcp::sim {

struct SimConfig {
  /// Number of processes; ids are 0..n-1.
  std::uint32_t n = 0;
  /// Master seed; all delivery, scheduling and per-process randomness
  /// derives deterministically from it.
  std::uint64_t seed = 1;
  /// run() gives up after this many atomic steps.
  std::uint64_t max_steps = 5'000'000;
};

enum class RunStatus : std::uint8_t {
  all_decided,  ///< every correct process decided
  quiescent,    ///< no process can take a step (deadlock if undecided remain)
  step_limit,   ///< max_steps exhausted
};

struct RunResult {
  RunStatus status{};
  std::uint64_t steps = 0;
};

/// Aggregate counters for one simulation.
struct Metrics {
  std::uint64_t steps = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t phi_steps = 0;
  /// Highest phase() observed across correct processes.
  Phase max_phase = 0;
};

class Simulation {
 public:
  /// Takes ownership of the processes (processes.size() must equal cfg.n).
  /// Default policies: UniformDelivery (the paper's probabilistic message
  /// system) and RandomScheduler.
  Simulation(SimConfig cfg, std::vector<std::unique_ptr<Process>> processes,
             std::unique_ptr<DeliveryPolicy> delivery = nullptr,
             std::unique_ptr<SchedulerPolicy> scheduler = nullptr);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Non-owning; pass nullptr to disable tracing.
  void set_trace(TraceSink* sink) noexcept { trace_ = sink; }

  /// Marks a process as faulty-by-design (Byzantine): it keeps running but
  /// its decisions are ignored and it does not count towards termination.
  void mark_faulty(ProcessId p);

  /// Immediately kills a process (fail-stop). Idempotent.
  void crash(ProcessId p);

  /// Kills `p` just before the first step with global step counter >= step.
  void schedule_crash_at_step(ProcessId p, std::uint64_t step);

  /// Kills `p` as soon as its phase() reaches `phase` (checked after each
  /// of p's steps, i.e. the process dies at the phase boundary).
  void schedule_crash_at_phase(ProcessId p, Phase phase);

  /// Runs start() if needed, then steps until every correct process has
  /// decided, the system is quiescent, or max_steps is reached.
  RunResult run();

  /// Delivers on_start to every live process. Called implicitly by run().
  void start();

  /// One atomic step. Returns false if no process is eligible.
  bool step();

  // ---- Observers ----------------------------------------------------

  [[nodiscard]] std::uint32_t n() const noexcept { return cfg_.n; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] bool alive(ProcessId p) const;
  [[nodiscard]] bool is_faulty(ProcessId p) const;
  [[nodiscard]] std::optional<Value> decision_of(ProcessId p) const;
  [[nodiscard]] Phase phase_of(ProcessId p) const;
  [[nodiscard]] std::size_t mailbox_size(ProcessId p) const;

  /// All processes that are neither crashed nor marked faulty.
  [[nodiscard]] std::vector<ProcessId> correct_ids() const;

  /// True if every correct process has decided.
  [[nodiscard]] bool all_correct_decided() const;

  /// True if no two correct processes decided different values (vacuously
  /// true while fewer than two have decided). This is the paper's
  /// *consistency* property, and the main post-condition tests assert.
  [[nodiscard]] bool agreement_holds() const;

  /// The common decision value, if at least one correct process decided
  /// and agreement holds.
  [[nodiscard]] std::optional<Value> agreed_value() const;

  /// Direct access for white-box tests.
  [[nodiscard]] Process& process(ProcessId p);

 private:
  class StepContext;

  void apply_due_step_crashes();
  void maybe_apply_phase_crash(ProcessId p);
  void do_crash(ProcessId p);
  void deliver_send(ProcessId from, ProcessId to, Bytes payload);
  void broadcast_send(ProcessId from, const Bytes& payload);
  void eligible_insert(ProcessId p);
  void eligible_erase(ProcessId p);
  void note_no_longer_counts(ProcessId p);
  void check_incremental_state() const;

  SimConfig cfg_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::unique_ptr<DeliveryPolicy> delivery_;
  std::unique_ptr<SchedulerPolicy> scheduler_;
  /// delivery_->order_preserving(), read once: the flag is constant per
  /// policy (see DeliveryPolicy), so step() need not make a virtual call.
  bool order_preserving_;
  std::vector<Mailbox> mailboxes_;
  std::vector<std::optional<Value>> decisions_;
  std::vector<bool> alive_;
  std::vector<bool> faulty_;
  std::vector<Rng> process_rngs_;
  Rng system_rng_;
  std::uint64_t next_seq_ = 0;
  bool started_ = false;
  Metrics metrics_;
  TraceSink* trace_ = nullptr;
  std::multimap<std::uint64_t, ProcessId> step_crashes_;
  std::map<ProcessId, Phase> phase_crashes_;
  /// Processes that are alive with a non-empty mailbox, kept sorted by id.
  /// Maintained incrementally on push/take/crash so step() never rescans
  /// the n mailboxes; the ascending order (and hence the scheduler's RNG
  /// draw sequence) is byte-identical to the old per-step scan.
  std::vector<ProcessId> eligible_;
  /// |{p : !faulty_[p] && !decisions_[p]}|, maintained by decide()/
  /// mark_faulty()/do_crash() so run()'s termination check is O(1).
  std::uint32_t undecided_correct_ = 0;
};

}  // namespace rcp::sim
