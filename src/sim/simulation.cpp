#include "sim/simulation.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace rcp::sim {

// Context implementation bound to one (simulation, acting process) pair for
// the duration of a single atomic step.
class Simulation::StepContext final : public Context {
 public:
  StepContext(Simulation& sim, ProcessId self) noexcept
      : sim_(sim), self_(self) {}

  [[nodiscard]] ProcessId self() const noexcept override { return self_; }
  [[nodiscard]] std::uint32_t n() const noexcept override {
    return sim_.cfg_.n;
  }
  [[nodiscard]] std::uint64_t step() const noexcept override {
    return sim_.metrics_.steps;
  }

  void send(ProcessId to, Bytes payload) override {
    RCP_EXPECT(to < sim_.cfg_.n, "send to unknown process");
    sim_.deliver_send(self_, to, std::move(payload));
  }

  void broadcast(const Bytes& payload) override {
    sim_.broadcast_send(self_, payload);
  }

  void decide(Value v) override {
    auto& slot = sim_.decisions_[self_];
    if (slot.has_value()) {
      RCP_INVARIANT(*slot == v,
                    "process attempted to change its one-shot decision");
      return;
    }
    slot = v;
    if (!sim_.faulty_[self_]) {
      --sim_.undecided_correct_;
    }
    if (sim_.trace_ != nullptr) {
      sim_.trace_->record(Event{.kind = EventKind::decide,
                                .step = sim_.metrics_.steps,
                                .process = self_,
                                .peer = self_,
                                .payload_size = 0,
                                .decision = v});
    }
  }

  [[nodiscard]] Rng& rng() noexcept override {
    return sim_.process_rngs_[self_];
  }

 private:
  Simulation& sim_;
  ProcessId self_;
};

Simulation::Simulation(SimConfig cfg,
                       std::vector<std::unique_ptr<Process>> processes,
                       std::unique_ptr<DeliveryPolicy> delivery,
                       std::unique_ptr<SchedulerPolicy> scheduler)
    : cfg_(cfg),
      processes_(std::move(processes)),
      delivery_(delivery ? std::move(delivery) : make_uniform_delivery()),
      scheduler_(scheduler ? std::move(scheduler) : make_random_scheduler()),
      order_preserving_(delivery_->order_preserving()),
      system_rng_(cfg.seed) {
  RCP_EXPECT(cfg_.n > 0, "simulation needs at least one process");
  RCP_EXPECT(processes_.size() == cfg_.n,
             "process count must match SimConfig::n");
  for (const auto& p : processes_) {
    RCP_EXPECT(p != nullptr, "null process");
  }
  // One-time construction of per-process state; the allocation contract
  // (tests/sim/allocation_test.cpp) starts at the first step. Every
  // container is sized for n here so the hot path never grows one.
  mailboxes_.resize(cfg_.n);      // rcp-lint: allow(hot-alloc) ctor setup
  decisions_.resize(cfg_.n);      // rcp-lint: allow(hot-alloc) ctor setup
  alive_.assign(cfg_.n, true);    // rcp-lint: allow(hot-alloc) ctor setup
  faulty_.assign(cfg_.n, false);  // rcp-lint: allow(hot-alloc) ctor setup
  process_rngs_.reserve(cfg_.n);  // rcp-lint: allow(hot-alloc) ctor setup
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    // rcp-lint: allow(hot-alloc) ctor setup
    process_rngs_.push_back(system_rng_.split());
  }
  eligible_.reserve(cfg_.n);      // rcp-lint: allow(hot-alloc) ctor setup
  undecided_correct_ = cfg_.n;
}

void Simulation::mark_faulty(ProcessId p) {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  note_no_longer_counts(p);
  faulty_[p] = true;
}

/// Bookkeeping for the O(1) termination check: `p` is about to stop
/// counting towards the undecided-correct total (marked faulty/crashed).
void Simulation::note_no_longer_counts(ProcessId p) {
  if (!faulty_[p] && !decisions_[p].has_value()) {
    --undecided_correct_;
  }
}

void Simulation::eligible_insert(ProcessId p) {
  // rcp-lint: allow(hot-alloc) insert into capacity-n vector; never grows
  eligible_.insert(std::lower_bound(eligible_.begin(), eligible_.end(), p), p);
}

void Simulation::eligible_erase(ProcessId p) {
  const auto it = std::lower_bound(eligible_.begin(), eligible_.end(), p);
  if (it != eligible_.end() && *it == p) {
    eligible_.erase(it);
  }
}

/// Debug cross-check: the incrementally-maintained eligible set and
/// undecided-correct counter must equal what a full rescan would produce.
void Simulation::check_incremental_state() const {
#ifndef NDEBUG
  std::vector<ProcessId> scan;
  std::uint32_t undecided = 0;
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (alive_[p] && !mailboxes_[p].empty()) {
      // rcp-lint: allow(hot-alloc) debug-only rescan cross-check
      scan.push_back(p);
    }
    if (!faulty_[p] && !decisions_[p].has_value()) {
      ++undecided;
    }
  }
  RCP_INVARIANT(scan == eligible_, "incremental eligible set diverged");
  RCP_INVARIANT(undecided == undecided_correct_,
                "undecided-correct counter diverged");
#endif
}

void Simulation::crash(ProcessId p) {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  do_crash(p);
}

void Simulation::do_crash(ProcessId p) {
  if (!alive_[p]) {
    return;
  }
  note_no_longer_counts(p);
  alive_[p] = false;
  faulty_[p] = true;
  eligible_erase(p);
  if (trace_ != nullptr) {
    trace_->record(Event{.kind = EventKind::crash,
                         .step = metrics_.steps,
                         .process = p,
                         .peer = p,
                         .payload_size = 0,
                         .decision = std::nullopt});
  }
}

void Simulation::schedule_crash_at_step(ProcessId p, std::uint64_t step) {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  // rcp-lint: allow(hot-alloc) fault-injection setup, not the step path
  step_crashes_.emplace(step, p);
}

void Simulation::schedule_crash_at_phase(ProcessId p, Phase phase) {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  phase_crashes_[p] = phase;
}

void Simulation::apply_due_step_crashes() {
  while (!step_crashes_.empty() &&
         step_crashes_.begin()->first <= metrics_.steps) {
    const ProcessId victim = step_crashes_.begin()->second;
    step_crashes_.erase(step_crashes_.begin());
    do_crash(victim);
  }
}

void Simulation::maybe_apply_phase_crash(ProcessId p) {
  if (phase_crashes_.empty()) {
    return;  // the common case: no phase crash scheduled, skip the lookup
  }
  const auto it = phase_crashes_.find(p);
  if (it != phase_crashes_.end() && processes_[p]->phase() >= it->second) {
    phase_crashes_.erase(it);
    do_crash(p);
  }
}

void Simulation::deliver_send(ProcessId from, ProcessId to, Bytes payload) {
  ++metrics_.messages_sent;
  if (trace_ != nullptr) {
    trace_->record(Event{.kind = EventKind::send,
                         .step = metrics_.steps,
                         .process = from,
                         .peer = to,
                         .payload_size = payload.size(),
                         .decision = std::nullopt});
  }
  Mailbox& box = mailboxes_[to];
  const bool was_empty = box.empty();
  // rcp-lint: allow(hot-alloc) Mailbox ring recycles; steady-state alloc-free
  Envelope& slot = box.emplace();
  slot.sender = from;
  slot.receiver = to;
  slot.payload = std::move(payload);
  slot.seq = next_seq_++;
  if (was_empty && alive_[to]) {
    eligible_insert(to);
  }
}

/// One encoded payload fanned out to all n mailboxes by cheap Payload copy
/// (inline memcpy, or a refcount bump for heap spills). Equivalent to n
/// deliver_send() calls — same per-destination trace events, counters and
/// sequence numbers — but with the loop-invariant state hoisted out of the
/// per-destination work.
void Simulation::broadcast_send(ProcessId from, const Bytes& payload) {
  const std::uint64_t now = metrics_.steps;
  const std::size_t len = payload.size();
  std::uint64_t seq = next_seq_;
  TraceSink* const trace = trace_;
  const std::uint32_t n = cfg_.n;
  for (ProcessId to = 0; to < n; ++to) {
    if (trace != nullptr) {
      trace->record(Event{.kind = EventKind::send,
                          .step = now,
                          .process = from,
                          .peer = to,
                          .payload_size = len,
                          .decision = std::nullopt});
    }
    Mailbox& box = mailboxes_[to];
    const bool was_empty = box.empty();
    // rcp-lint: allow(hot-alloc) Mailbox ring recycles; steady-state alloc-free
    Envelope& slot = box.emplace();
    slot.sender = from;
    slot.receiver = to;
    slot.payload = payload;
    slot.seq = seq++;
    if (was_empty && alive_[to]) {
      eligible_insert(to);
    }
  }
  next_seq_ = seq;
  metrics_.messages_sent += n;
}

void Simulation::start() {
  RCP_EXPECT(!started_, "start() called twice");
  started_ = true;
  apply_due_step_crashes();
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (!alive_[p]) {
      continue;  // initially-dead processes never take their start step
    }
    StepContext ctx(*this, p);
    processes_[p]->on_start(ctx);
    if (trace_ != nullptr) {
      trace_->record(Event{.kind = EventKind::start,
                           .step = metrics_.steps,
                           .process = p,
                           .peer = p,
                           .payload_size = 0,
                           .decision = std::nullopt});
    }
    maybe_apply_phase_crash(p);
  }
}

bool Simulation::step() {
  if (!started_) {
    start();
  }
  apply_due_step_crashes();
  check_incremental_state();
  if (eligible_.empty()) {
    return false;
  }
  const ProcessId p = scheduler_->pick(eligible_, system_rng_);
  RCP_INVARIANT(p < cfg_.n && alive_[p], "scheduler picked invalid process");
  ++metrics_.steps;

  Mailbox& box = mailboxes_[p];
  const std::optional<std::size_t> choice =
      delivery_->pick(p, box, metrics_.steps, system_rng_);
  StepContext ctx(*this, p);
  if (!choice.has_value()) {
    ++metrics_.phi_steps;
    if (trace_ != nullptr) {
      trace_->record(Event{.kind = EventKind::phi,
                           .step = metrics_.steps,
                           .process = p,
                           .peer = p,
                           .payload_size = 0,
                           .decision = std::nullopt});
    }
    processes_[p]->on_null(ctx);
  } else {
    const Envelope env = order_preserving_
                             ? box.take_front_preserving(*choice)
                             : box.take(*choice);
    if (box.empty()) {
      eligible_erase(p);  // before on_message: a self-send must re-insert
    }
    ++metrics_.messages_delivered;
    if (trace_ != nullptr) {
      trace_->record(Event{.kind = EventKind::deliver,
                           .step = metrics_.steps,
                           .process = p,
                           .peer = env.sender,
                           .payload_size = env.payload.size(),
                           .decision = std::nullopt});
    }
    processes_[p]->on_message(ctx, env);
  }
  if (!faulty_[p]) {
    metrics_.max_phase = std::max(metrics_.max_phase, processes_[p]->phase());
  }
  maybe_apply_phase_crash(p);
  return true;
}

RunResult Simulation::run() {
  if (!started_) {
    start();
  }
  while (metrics_.steps < cfg_.max_steps) {
    if (all_correct_decided()) {
      return RunResult{RunStatus::all_decided, metrics_.steps};
    }
    if (!step()) {
      return RunResult{RunStatus::quiescent, metrics_.steps};
    }
  }
  return RunResult{all_correct_decided() ? RunStatus::all_decided
                                         : RunStatus::step_limit,
                   metrics_.steps};
}

bool Simulation::alive(ProcessId p) const {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  return alive_[p];
}

bool Simulation::is_faulty(ProcessId p) const {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  return faulty_[p];
}

std::optional<Value> Simulation::decision_of(ProcessId p) const {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  return decisions_[p];
}

Phase Simulation::phase_of(ProcessId p) const {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  return processes_[p]->phase();
}

std::size_t Simulation::mailbox_size(ProcessId p) const {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  return mailboxes_[p].size();
}

std::vector<ProcessId> Simulation::correct_ids() const {
  std::vector<ProcessId> out;
  // rcp-lint: allow(hot-alloc) post-run reporting helper
  out.reserve(cfg_.n);
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (!faulty_[p]) {
      // rcp-lint: allow(hot-alloc) post-run reporting helper
      out.push_back(p);
    }
  }
  return out;
}

bool Simulation::all_correct_decided() const {
#ifndef NDEBUG
  std::uint32_t undecided = 0;
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (!faulty_[p] && !decisions_[p].has_value()) {
      ++undecided;
    }
  }
  RCP_INVARIANT(undecided == undecided_correct_,
                "undecided-correct counter diverged");
#endif
  return undecided_correct_ == 0;
}

bool Simulation::agreement_holds() const {
  std::optional<Value> seen;
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (faulty_[p] || !decisions_[p].has_value()) {
      continue;
    }
    if (seen.has_value() && *seen != *decisions_[p]) {
      return false;
    }
    seen = decisions_[p];
  }
  return true;
}

std::optional<Value> Simulation::agreed_value() const {
  if (!agreement_holds()) {
    return std::nullopt;
  }
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    if (!faulty_[p] && decisions_[p].has_value()) {
      return decisions_[p];
    }
  }
  return std::nullopt;
}

Process& Simulation::process(ProcessId p) {
  RCP_EXPECT(p < cfg_.n, "unknown process");
  return *processes_[p];
}

}  // namespace rcp::sim
