#include "fuzz/mutate.hpp"

#include <algorithm>

#include "adversary/crash_plan.hpp"

namespace rcp::fuzz {

namespace {

constexpr std::size_t kMaxMutMoves = 8;
constexpr std::size_t kMaxMutCrashes = 4;

std::vector<Value> alternating(std::uint32_t n) {
  std::vector<Value> v(n, Value::zero);
  for (std::uint32_t i = 0; i < n; ++i) {
    v[i] = i % 2 == 0 ? Value::zero : Value::one;
  }
  return v;
}

/// Sorted sample of `count` distinct ids from [0, n).
std::vector<ProcessId> sample_cast(std::uint32_t n, std::uint32_t count,
                                   Rng& rng) {
  auto ids = rng.sample_without_replacement(n, count);
  std::sort(ids.begin(), ids.end());
  return {ids.begin(), ids.end()};
}

adversary::ScriptedMove random_move(Rng& rng) {
  adversary::ScriptedMove m;
  m.low_value = rng.bernoulli(0.5) ? Value::one : Value::zero;
  m.high_value = rng.bernoulli(0.5) ? Value::one : Value::zero;
  m.split256 = static_cast<std::uint8_t>(rng.below(256));
  m.echo_mode = static_cast<std::uint8_t>(rng.below(3));
  return m;
}

std::vector<std::uint32_t> random_tape(Rng& rng, std::size_t count) {
  std::vector<std::uint32_t> tape(count);
  for (auto& v : tape) {
    v = static_cast<std::uint32_t>(rng.next());
  }
  return tape;
}

bool supports_byzantine(adversary::ProtocolKind p) noexcept {
  // The zoo speaks Figure 2's wire format; against Fig 1 / the majority
  // variant those bytes fail to decode, so a cast there is dead weight.
  return p == adversary::ProtocolKind::malicious;
}

}  // namespace

std::vector<SchedulePlan> seed_corpus(adversary::ProtocolKind protocol,
                                      core::ConsensusParams params,
                                      std::uint64_t base_seed) {
  Rng rng(base_seed);
  const std::uint32_t n = params.n;
  const std::uint32_t k = params.k;

  const auto base = [&] {
    SchedulePlan p;
    p.spec.protocol = protocol;
    p.spec.params = params;
    p.spec.inputs = alternating(n);
    p.spec.seed = rng.next();
    p.tape_seed = rng.next();
    return p;
  };

  std::vector<SchedulePlan> out;
  out.push_back(base());  // fault-free baseline

  if (supports_byzantine(protocol) && k > 0) {
    for (const auto kind : {adversary::ByzantineKind::equivocator,
                            adversary::ByzantineKind::balancer,
                            adversary::ByzantineKind::babbler,
                            adversary::ByzantineKind::scripted}) {
      SchedulePlan p = base();
      p.spec.byzantine_kind = kind;
      p.spec.byzantine_ids = sample_cast(n, k, rng);
      if (kind == adversary::ByzantineKind::scripted) {
        p.spec.moves = {random_move(rng), random_move(rng)};
      }
      out.push_back(std::move(p));
    }
  }

  if (k > 0) {
    SchedulePlan p = base();  // crash-only variant (legal in every model)
    const std::uint32_t count = std::min(k, n);
    for (std::uint32_t i = 0; i < count; ++i) {
      adversary::CrashEvent c;
      c.victim = static_cast<ProcessId>(rng.below(n));
      c.by_phase = true;
      c.at_phase = 1 + rng.below(4);
      // Distinct victims: retry into the first free slot deterministically.
      while (std::any_of(p.spec.crashes.begin(), p.spec.crashes.end(),
                         [&](const auto& e) { return e.victim == c.victim; })) {
        c.victim = (c.victim + 1) % n;
      }
      p.spec.crashes.push_back(c);
    }
    out.push_back(std::move(p));
  }

  {
    SchedulePlan p = base();  // heavy-delay variant
    p.spec.phi_weight = 64;
    out.push_back(std::move(p));
  }

  for (auto& p : out) {
    p.validate();
  }
  return out;
}

SchedulePlan mutate(const SchedulePlan& parent, Rng& rng) {
  SchedulePlan p = parent;
  p.expect = {};  // children are new executions; no inherited golden
  const std::uint32_t n = p.spec.params.n;
  const std::uint32_t k = p.spec.params.k;

  const std::uint64_t ops = 1 + rng.below(3);
  for (std::uint64_t op = 0; op < ops; ++op) {
    switch (rng.below(10)) {
      case 0: {  // rewrite a tape window
        if (p.tape.empty()) {
          p.tape = random_tape(rng, 32 + rng.below(96));
        }
        const std::size_t pos = rng.below(p.tape.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.below(16), p.tape.size() - pos);
        for (std::size_t i = 0; i < len; ++i) {
          p.tape[pos + i] = static_cast<std::uint32_t>(rng.next());
        }
        break;
      }
      case 1: {  // extend the explicit tape
        const std::size_t extra = 1 + rng.below(64);
        const auto tail = random_tape(rng, extra);
        p.tape.insert(p.tape.end(), tail.begin(), tail.end());
        if (p.tape.size() > kMaxTape) {
          p.tape.resize(kMaxTape);
        }
        break;
      }
      case 2: {  // truncate
        if (!p.tape.empty()) {
          p.tape.resize(rng.below(p.tape.size() + 1));
        }
        break;
      }
      case 3:
        p.tape_seed = rng.next();
        break;
      case 4:
        p.spec.seed = rng.next();
        break;
      case 5: {  // flip one input
        const auto i = static_cast<std::size_t>(rng.below(n));
        p.spec.inputs[i] = other(p.spec.inputs[i]);
        break;
      }
      case 6:
        p.spec.phi_weight = static_cast<std::uint32_t>(rng.below(65));
        break;
      case 7: {  // resample the Byzantine cast
        if (!supports_byzantine(p.spec.protocol) || k == 0) {
          break;
        }
        const auto count = static_cast<std::uint32_t>(rng.below(k + 1));
        p.spec.byzantine_ids = sample_cast(n, count, rng);
        if (!p.spec.byzantine_ids.empty()) {
          constexpr adversary::ByzantineKind kKinds[] = {
              adversary::ByzantineKind::silent,
              adversary::ByzantineKind::equivocator,
              adversary::ByzantineKind::balancer,
              adversary::ByzantineKind::babbler,
              adversary::ByzantineKind::scripted,
          };
          p.spec.byzantine_kind = kKinds[rng.below(5)];
        }
        if (p.spec.byzantine_kind == adversary::ByzantineKind::scripted &&
            p.spec.moves.empty()) {
          p.spec.moves = {random_move(rng)};
        }
        break;
      }
      case 8: {  // perturb the move script
        if (p.spec.moves.empty()) {
          p.spec.moves.push_back(random_move(rng));
        } else if (rng.bernoulli(0.3) && p.spec.moves.size() < kMaxMutMoves) {
          p.spec.moves.push_back(random_move(rng));
        } else if (rng.bernoulli(0.2) && p.spec.moves.size() > 1) {
          p.spec.moves.pop_back();
        } else {
          p.spec.moves[rng.below(p.spec.moves.size())] = random_move(rng);
        }
        break;
      }
      case 9: {  // perturb the crash schedule
        if (p.spec.crashes.size() < std::min<std::size_t>(kMaxMutCrashes, n) &&
            rng.bernoulli(0.5)) {
          adversary::CrashEvent c;
          c.victim = static_cast<ProcessId>(rng.below(n));
          c.by_phase = rng.bernoulli(0.7);
          if (c.by_phase) {
            c.at_phase = rng.below(8);
          } else {
            c.at_step = rng.below(2048);
          }
          p.spec.crashes.push_back(c);
        } else if (!p.spec.crashes.empty()) {
          p.spec.crashes.erase(p.spec.crashes.begin() +
                               static_cast<std::ptrdiff_t>(
                                   rng.below(p.spec.crashes.size())));
        }
        break;
      }
      default:
        break;
    }
  }
  p.validate();
  return p;
}

}  // namespace rcp::fuzz
