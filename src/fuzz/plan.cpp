#include "fuzz/plan.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "fuzz/digest.hpp"
#include "fuzz/tape.hpp"

namespace rcp::fuzz {

namespace {

// Caps that keep any syntactically valid (or mutated) plan cheap enough to
// execute: the fuzzer runs thousands of plans per budget, and a parse-time
// bound beats an OOM or a multi-minute outlier mid-batch.
constexpr std::uint32_t kMaxN = 64;
constexpr std::uint64_t kMaxSteps = 5'000'000;
constexpr std::size_t kMaxMoves = 64;
constexpr std::uint32_t kMaxPhiWeight = 200;
constexpr std::size_t kTapeValuesPerLine = 16;

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("rcp-plan-v1:" + std::to_string(line_no) + ": " +
                           what);
}

std::uint64_t parse_u64(std::string_view token, std::size_t line_no,
                        const char* what) {
  std::uint64_t v = 0;
  const char* first = token.data();
  const char* last = first + token.size();
  // Accept the 0x form the expect line uses for digests.
  int base = 10;
  if (token.size() > 2 && token[0] == '0' && token[1] == 'x') {
    base = 16;
    first += 2;
  }
  const auto [ptr, ec] = std::from_chars(first, last, v, base);
  if (ec != std::errc{} || ptr != last) {
    fail(line_no, std::string("bad ") + what + ": '" + std::string(token) +
                      "'");
  }
  return v;
}

/// parse_u64 narrowed to the field's type: a value that does not fit is
/// rejected, never truncated.
template <typename T>
T parse_uint(std::string_view token, std::size_t line_no, const char* what) {
  const std::uint64_t v = parse_u64(token, line_no, what);
  if (v > std::numeric_limits<T>::max()) {
    fail(line_no, std::string(what) + " out of range: '" + std::string(token) +
                      "'");
  }
  return static_cast<T>(v);
}

/// A 0/1 consensus value (value_from_int would map any nonzero to one).
Value parse_value(std::string_view token, std::size_t line_no,
                  const char* what) {
  if (token != "0" && token != "1") {
    fail(line_no, std::string(what) + " must be 0 or 1: '" +
                      std::string(token) + "'");
  }
  return token == "1" ? Value::one : Value::zero;
}

/// Splits a line into whitespace-separated tokens.
std::vector<std::string_view> tokens_of(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
      ++i;
    }
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
      ++i;
    }
    if (i > start) {
      out.push_back(line.substr(start, i - start));
    }
  }
  return out;
}

char hex_digit(std::uint64_t v) noexcept {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

void append_hex(std::string& out, std::uint64_t v) {
  out += "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += hex_digit((v >> shift) & 0xf);
  }
}

}  // namespace

const char* protocol_token(adversary::ProtocolKind k) noexcept {
  switch (k) {
    case adversary::ProtocolKind::fail_stop:
      return "fig1";
    case adversary::ProtocolKind::malicious:
      return "fig2";
    case adversary::ProtocolKind::majority:
      return "majority";
  }
  return "?";
}

const char* byzantine_token(adversary::ByzantineKind k) noexcept {
  switch (k) {
    case adversary::ByzantineKind::silent:
      return "silent";
    case adversary::ByzantineKind::equivocator:
      return "equivocator";
    case adversary::ByzantineKind::balancer:
      return "balancer";
    case adversary::ByzantineKind::babbler:
      return "babbler";
    case adversary::ByzantineKind::scripted:
      return "scripted";
  }
  return "?";
}

const char* status_token(sim::RunStatus s) noexcept {
  switch (s) {
    case sim::RunStatus::all_decided:
      return "decided";
    case sim::RunStatus::quiescent:
      return "quiescent";
    case sim::RunStatus::step_limit:
      return "step-limit";
  }
  return "?";
}

std::string SchedulePlan::serialize() const {
  std::string out;
  out.reserve(256 + tape.size() * 12);
  out += "rcp-plan-v1\n";
  out += "protocol ";
  out += protocol_token(spec.protocol);
  out += '\n';
  out += "n " + std::to_string(spec.params.n) + '\n';
  out += "k " + std::to_string(spec.params.k) + '\n';
  out += "inputs ";
  for (const Value v : spec.inputs) {
    out += v == Value::one ? '1' : '0';
  }
  out += '\n';
  if (!spec.byzantine_ids.empty()) {
    out += "byzantine ";
    out += byzantine_token(spec.byzantine_kind);
    for (const ProcessId b : spec.byzantine_ids) {
      out += ' ';
      out += std::to_string(b);
    }
    out += '\n';
  }
  for (const auto& m : spec.moves) {
    out += "move " + std::to_string(value_index(m.low_value)) + ' ' +
           std::to_string(value_index(m.high_value)) + ' ' +
           std::to_string(m.split256) + ' ' + std::to_string(m.echo_mode) +
           '\n';
  }
  for (const auto& c : spec.crashes) {
    if (c.by_phase) {
      out += "crash-phase " + std::to_string(c.victim) + ' ' +
             std::to_string(c.at_phase) + '\n';
    } else {
      out += "crash-step " + std::to_string(c.victim) + ' ' +
             std::to_string(c.at_step) + '\n';
    }
  }
  out += "seed " + std::to_string(spec.seed) + '\n';
  out += "max-steps " + std::to_string(spec.max_steps) + '\n';
  out += "phi-weight " + std::to_string(spec.phi_weight) + '\n';
  out += "net-drop-permille " + std::to_string(spec.net_drop_permille) + '\n';
  out += "net-delay-max-ms " + std::to_string(spec.net_delay_max_ms) + '\n';
  out += "net-disconnects " + std::to_string(spec.net_disconnects) + '\n';
  out += "tape-seed " + std::to_string(tape_seed) + '\n';
  for (std::size_t i = 0; i < tape.size(); i += kTapeValuesPerLine) {
    out += "tape";
    const std::size_t end = std::min(tape.size(), i + kTapeValuesPerLine);
    for (std::size_t j = i; j < end; ++j) {
      out += ' ';
      out += std::to_string(tape[j]);
    }
    out += '\n';
  }
  if (expect.present) {
    out += "expect ";
    out += status_token(expect.status);
    out += ' ' + std::to_string(expect.steps) + ' ';
    append_hex(out, expect.trace_digest);
    out += ' ';
    append_hex(out, expect.state_digest);
    out += '\n';
  }
  out += "end\n";
  return out;
}

SchedulePlan SchedulePlan::parse(std::istream& in) {
  SchedulePlan plan;
  plan.spec.params = {0, 0};
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  bool saw_end = false;
  bool saw_inputs = false;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip trailing CR (files may transit Windows tooling) and comments.
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const auto toks = tokens_of(line);
    if (toks.empty()) {
      continue;
    }
    if (!saw_header) {
      if (toks.size() != 1 || toks[0] != "rcp-plan-v1") {
        fail(line_no, "expected rcp-plan-v1 header");
      }
      saw_header = true;
      continue;
    }
    if (saw_end) {
      fail(line_no, "content after end");
    }
    const std::string_view key = toks[0];
    const auto arg_count = toks.size() - 1;
    // The argument of a single-value key.
    const auto arg = [&]() -> std::string_view {
      if (arg_count != 1) {
        fail(line_no, std::string(key) + " takes one argument");
      }
      return toks[1];
    };
    if (key == "protocol") {
      const std::string_view name = arg();
      if (name == "fig1") {
        plan.spec.protocol = adversary::ProtocolKind::fail_stop;
      } else if (name == "fig2") {
        plan.spec.protocol = adversary::ProtocolKind::malicious;
      } else if (name == "majority") {
        plan.spec.protocol = adversary::ProtocolKind::majority;
      } else {
        fail(line_no, "unknown protocol '" + std::string(name) + "'");
      }
    } else if (key == "n") {
      plan.spec.params.n = parse_uint<std::uint32_t>(arg(), line_no, "n");
    } else if (key == "k") {
      plan.spec.params.k = parse_uint<std::uint32_t>(arg(), line_no, "k");
    } else if (key == "inputs") {
      plan.spec.inputs.clear();
      for (const char c : arg()) {
        if (c != '0' && c != '1') {
          fail(line_no, "inputs must be 0/1");
        }
        plan.spec.inputs.push_back(c == '1' ? Value::one : Value::zero);
      }
      saw_inputs = true;
    } else if (key == "byzantine") {
      if (arg_count < 2) {
        fail(line_no, "byzantine takes a kind and at least one id");
      }
      if (toks[1] == "silent") {
        plan.spec.byzantine_kind = adversary::ByzantineKind::silent;
      } else if (toks[1] == "equivocator") {
        plan.spec.byzantine_kind = adversary::ByzantineKind::equivocator;
      } else if (toks[1] == "balancer") {
        plan.spec.byzantine_kind = adversary::ByzantineKind::balancer;
      } else if (toks[1] == "babbler") {
        plan.spec.byzantine_kind = adversary::ByzantineKind::babbler;
      } else if (toks[1] == "scripted") {
        plan.spec.byzantine_kind = adversary::ByzantineKind::scripted;
      } else {
        fail(line_no, "unknown byzantine kind '" + std::string(toks[1]) + "'");
      }
      plan.spec.byzantine_ids.clear();
      for (std::size_t i = 2; i < toks.size(); ++i) {
        plan.spec.byzantine_ids.push_back(
            parse_uint<ProcessId>(toks[i], line_no, "byzantine id"));
      }
    } else if (key == "move") {
      if (arg_count != 4) {
        fail(line_no, "move takes low high split256 echo_mode");
      }
      adversary::ScriptedMove m;
      m.low_value = parse_value(toks[1], line_no, "move low");
      m.high_value = parse_value(toks[2], line_no, "move high");
      m.split256 = parse_uint<std::uint8_t>(toks[3], line_no, "move split256");
      m.echo_mode =
          parse_uint<std::uint8_t>(toks[4], line_no, "move echo_mode");
      plan.spec.moves.push_back(m);
    } else if (key == "crash-step" || key == "crash-phase") {
      if (arg_count != 2) {
        fail(line_no, "crash takes victim and when");
      }
      adversary::CrashEvent c;
      c.victim = parse_uint<ProcessId>(toks[1], line_no, "crash victim");
      c.by_phase = key == "crash-phase";
      if (c.by_phase) {
        c.at_phase = parse_u64(toks[2], line_no, "crash phase");
      } else {
        c.at_step = parse_u64(toks[2], line_no, "crash step");
      }
      plan.spec.crashes.push_back(c);
    } else if (key == "seed") {
      plan.spec.seed = parse_u64(arg(), line_no, "seed");
    } else if (key == "max-steps") {
      plan.spec.max_steps = parse_u64(arg(), line_no, "max-steps");
    } else if (key == "phi-weight") {
      plan.spec.phi_weight =
          parse_uint<std::uint32_t>(arg(), line_no, "phi-weight");
    } else if (key == "net-drop-permille") {
      plan.spec.net_drop_permille =
          parse_uint<std::uint32_t>(arg(), line_no, "net-drop-permille");
    } else if (key == "net-delay-max-ms") {
      plan.spec.net_delay_max_ms =
          parse_uint<std::uint32_t>(arg(), line_no, "net-delay-max-ms");
    } else if (key == "net-disconnects") {
      plan.spec.net_disconnects =
          parse_uint<std::uint32_t>(arg(), line_no, "net-disconnects");
    } else if (key == "tape-seed") {
      plan.tape_seed = parse_u64(arg(), line_no, "tape-seed");
    } else if (key == "tape") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        if (plan.tape.size() == kMaxTape) {
          fail(line_no, "tape longer than " + std::to_string(kMaxTape));
        }
        plan.tape.push_back(
            parse_uint<std::uint32_t>(toks[i], line_no, "tape value"));
      }
    } else if (key == "expect") {
      if (arg_count != 4) {
        fail(line_no, "expect takes status steps trace state");
      }
      plan.expect.present = true;
      if (toks[1] == "decided") {
        plan.expect.status = sim::RunStatus::all_decided;
      } else if (toks[1] == "quiescent") {
        plan.expect.status = sim::RunStatus::quiescent;
      } else if (toks[1] == "step-limit") {
        plan.expect.status = sim::RunStatus::step_limit;
      } else {
        fail(line_no, "unknown expect status '" + std::string(toks[1]) + "'");
      }
      plan.expect.steps = parse_u64(toks[2], line_no, "expect steps");
      plan.expect.trace_digest = parse_u64(toks[3], line_no, "expect trace");
      plan.expect.state_digest = parse_u64(toks[4], line_no, "expect state");
    } else if (key == "end") {
      saw_end = true;
    } else {
      fail(line_no, "unknown key '" + std::string(key) + "'");
    }
  }
  if (!saw_header) {
    fail(line_no, "missing rcp-plan-v1 header");
  }
  if (!saw_end) {
    fail(line_no, "missing end line");
  }
  if (!saw_inputs) {
    fail(line_no, "missing inputs line");
  }
  plan.validate();
  return plan;
}

SchedulePlan SchedulePlan::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

void SchedulePlan::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::runtime_error("invalid plan: " + what);
  };
  const std::uint32_t n = spec.params.n;
  if (n == 0 || n > kMaxN) {
    bad("n out of range [1, " + std::to_string(kMaxN) + "]");
  }
  if (spec.params.k >= n) {
    bad("k must be < n");
  }
  if (spec.inputs.size() != n) {
    bad("inputs size != n");
  }
  // Stay inside the protocol's proven resilience bound: the fuzzer searches
  // for violations *within* the paper's hypotheses, where any disagreement
  // is a real bug (beyond the bound, disagreement is expected — Theorems
  // 1 and 3 — and would drown the signal).
  const auto model = spec.protocol == adversary::ProtocolKind::fail_stop
                         ? core::FaultModel::fail_stop
                         : core::FaultModel::malicious;
  if (spec.params.k > core::max_resilience(model, n)) {
    bad("k beyond the resilience bound");
  }
  if (spec.byzantine_ids.size() > spec.params.k) {
    bad("more byzantine ids than k");
  }
  for (std::size_t i = 0; i < spec.byzantine_ids.size(); ++i) {
    if (spec.byzantine_ids[i] >= n) {
      bad("byzantine id outside [0, n)");
    }
    // Strictly increasing: one canonical serialization per cast.
    if (i > 0 && spec.byzantine_ids[i] <= spec.byzantine_ids[i - 1]) {
      bad("byzantine ids must be strictly increasing");
    }
  }
  if (spec.moves.size() > kMaxMoves) {
    bad("too many scripted moves");
  }
  for (const auto& m : spec.moves) {
    if (m.echo_mode > 2) {
      bad("move echo_mode outside [0, 2]");
    }
  }
  if (spec.crashes.size() > n) {
    bad("more crash events than processes");
  }
  for (const auto& c : spec.crashes) {
    if (c.victim >= n) {
      bad("crash victim outside [0, n)");
    }
  }
  if (spec.max_steps == 0 || spec.max_steps > kMaxSteps) {
    bad("max-steps out of range [1, " + std::to_string(kMaxSteps) + "]");
  }
  if (spec.phi_weight > kMaxPhiWeight) {
    bad("phi-weight out of range [0, " + std::to_string(kMaxPhiWeight) + "]");
  }
  if (spec.net_drop_permille > 300) {
    bad("net-drop-permille out of range [0, 300]");
  }
  if (spec.net_delay_max_ms > 50) {
    bad("net-delay-max-ms out of range [0, 50]");
  }
  if (spec.net_disconnects > n) {
    bad("net-disconnects out of range [0, n]");
  }
  if (tape.size() > kMaxTape) {
    bad("tape longer than " + std::to_string(kMaxTape));
  }
}

std::uint64_t SchedulePlan::content_hash() const { return fnv1a(serialize()); }

adversary::Scenario to_scenario(const SchedulePlan& plan) {
  adversary::Scenario s;
  s.protocol = plan.spec.protocol;
  s.params = plan.spec.params;
  s.inputs = plan.spec.inputs;
  s.byzantine_ids = plan.spec.byzantine_ids;
  s.byzantine_kind = plan.spec.byzantine_kind;
  s.scripted_moves = plan.spec.moves;
  s.crashes = adversary::CrashPlan(plan.spec.crashes);
  s.seed = plan.spec.seed;
  s.max_steps = plan.spec.max_steps;
  return s;
}

SchedulePlan to_plan(const adversary::Scenario& scenario) {
  SchedulePlan plan;
  plan.spec.protocol = scenario.protocol;
  plan.spec.params = scenario.params;
  plan.spec.inputs = scenario.inputs;
  plan.spec.byzantine_ids = scenario.byzantine_ids;
  plan.spec.byzantine_kind = scenario.byzantine_kind;
  plan.spec.moves = scenario.scripted_moves;
  plan.spec.crashes = scenario.crashes.events();
  plan.spec.seed = scenario.seed;
  plan.spec.max_steps = scenario.max_steps;
  return plan;
}

std::unique_ptr<sim::Simulation> build(const SchedulePlan& plan) {
  auto policies =
      make_tape_policies(plan.tape, plan.tape_seed, plan.spec.phi_weight);
  return adversary::build(to_scenario(plan), std::move(policies.delivery),
                          std::move(policies.scheduler));
}

}  // namespace rcp::fuzz
