// SchedulePlan: the fuzzer's genome and the repo's golden-scenario format.
//
// A plan is a compact, replayable encoding of one complete adversarial
// execution: the protocol under test and its parameters, the input vector,
// the Byzantine cast (any zoo strategy or a fuzzer-mutable move script),
// the crash schedule, and a decision *tape* resolving every delivery-order
// and drop/delay choice (see tape.hpp). Running a plan is a pure function
// of its bytes — no wall clock, no global RNG — which is what makes plans
// mutable, minimizable, diffable and checkable into tests/data/.
//
// The text format (`rcp-plan-v1`) is line-oriented and canonical: serialize()
// always emits the same lines in the same order, so parse(serialize(p))
// round-trips byte-identically — the property the golden round-trip suite
// enforces for every checked-in plan. A plan may embed its expected outcome
// (`expect` line: status, steps, trace digest, state digest); replaying such
// a plan is a full golden regression test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "adversary/scenario.hpp"
#include "common/types.hpp"
#include "core/params.hpp"
#include "sim/simulation.hpp"

namespace rcp::fuzz {

/// Longest explicit tape a plan may carry (validate() rejects more; the
/// mutator truncates to it).
inline constexpr std::size_t kMaxTape = 1 << 16;

/// Everything about the system under test except the schedule itself.
struct PlanSpec {
  adversary::ProtocolKind protocol = adversary::ProtocolKind::malicious;
  core::ConsensusParams params{7, 2};
  /// One initial value per process (size n); Byzantine slots ignored.
  std::vector<Value> inputs;
  std::vector<ProcessId> byzantine_ids;
  adversary::ByzantineKind byzantine_kind = adversary::ByzantineKind::silent;
  /// Move table for ByzantineKind::scripted.
  std::vector<adversary::ScriptedMove> moves;
  std::vector<adversary::CrashEvent> crashes;
  /// Simulation seed: feeds the per-process RNG streams (babbler draws,
  /// randomized baselines) — the schedule itself comes from the tape.
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 200'000;
  /// phi (delay) weight out of 256 for the tape's delivery decode.
  std::uint32_t phi_weight = 16;
  /// Net-nemesis knobs (ignored by the simulator; see nemesis.hpp).
  std::uint32_t net_drop_permille = 0;
  std::uint32_t net_delay_max_ms = 0;
  std::uint32_t net_disconnects = 0;
};

/// Embedded golden outcome; present on fuzzer-emitted scenario files.
struct PlanExpect {
  bool present = false;
  sim::RunStatus status = sim::RunStatus::all_decided;
  std::uint64_t steps = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t state_digest = 0;
};

struct SchedulePlan {
  PlanSpec spec;
  /// Seeds the SplitMix64 fallback stream once the tape is exhausted.
  std::uint64_t tape_seed = 0;
  /// Explicit schedule prefix; may be empty (pure fallback stream).
  std::vector<std::uint32_t> tape;
  PlanExpect expect;

  /// Canonical text form (see file header). Stable across runs.
  [[nodiscard]] std::string serialize() const;

  /// Parses a plan; throws std::runtime_error with a line-numbered message
  /// on malformed input. Accepts exactly the serialize() grammar.
  [[nodiscard]] static SchedulePlan parse(std::istream& in);
  [[nodiscard]] static SchedulePlan parse_string(const std::string& text);

  /// Structural validation (sizes, id ranges, caps that keep mutated plans
  /// executable). Throws std::runtime_error on violation.
  void validate() const;

  /// FNV-1a over the serialized bytes — the corpus identity of this plan.
  [[nodiscard]] std::uint64_t content_hash() const;
};

/// Plan -> the scenario vocabulary the adversary layer builds from.
[[nodiscard]] adversary::Scenario to_scenario(const SchedulePlan& plan);

/// The inverse of to_scenario: a plan with an empty tape, tape seed 0 and
/// the default phi weight. The result is not validated.
[[nodiscard]] SchedulePlan to_plan(const adversary::Scenario& scenario);

/// Builds the simulation with the plan's tape driving both policies.
[[nodiscard]] std::unique_ptr<sim::Simulation> build(const SchedulePlan& plan);

[[nodiscard]] const char* protocol_token(adversary::ProtocolKind k) noexcept;
[[nodiscard]] const char* byzantine_token(adversary::ByzantineKind k) noexcept;
[[nodiscard]] const char* status_token(sim::RunStatus s) noexcept;

}  // namespace rcp::fuzz
