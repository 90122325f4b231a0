// SchedulePlan: canonical serialization round-trip, structural validation,
// and parser diagnostics (the rcp-plan-v1 grammar is the golden-scenario
// format; see docs/FUZZ.md).
#include "fuzz/plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rcp::fuzz {
namespace {

/// A plan exercising every serialized section at once.
SchedulePlan rich_plan() {
  SchedulePlan p;
  p.spec.protocol = adversary::ProtocolKind::malicious;
  p.spec.params = {7, 2};
  p.spec.inputs = {Value::zero, Value::one, Value::one, Value::zero,
                   Value::one,  Value::zero, Value::one};
  p.spec.byzantine_ids = {1, 4};
  p.spec.byzantine_kind = adversary::ByzantineKind::scripted;
  p.spec.moves = {{Value::zero, Value::one, 100, 2},
                  {Value::one, Value::zero, 200, 0}};
  p.spec.crashes.push_back(
      {.victim = 3, .by_phase = false, .at_step = 120, .at_phase = 0});
  p.spec.crashes.push_back(
      {.victim = 5, .by_phase = true, .at_step = 0, .at_phase = 2});
  p.spec.seed = 0xdeadbeefULL;
  p.spec.max_steps = 40'000;
  p.spec.phi_weight = 32;
  p.spec.net_drop_permille = 50;
  p.spec.net_delay_max_ms = 7;
  p.spec.net_disconnects = 2;
  p.tape_seed = 0x1234'5678'9abc'def0ULL;
  for (std::uint32_t i = 0; i < 40; ++i) {
    p.tape.push_back(i * 2654435761U);
  }
  p.expect.present = true;
  p.expect.status = sim::RunStatus::all_decided;
  p.expect.steps = 777;
  p.expect.trace_digest = 0x0123456789abcdefULL;
  p.expect.state_digest = 0xfedcba9876543210ULL;
  return p;
}

TEST(Plan, SerializeParseRoundTripsByteIdentically) {
  const SchedulePlan p = rich_plan();
  const std::string text = p.serialize();
  const SchedulePlan q = SchedulePlan::parse_string(text);
  EXPECT_EQ(q.serialize(), text);

  EXPECT_EQ(q.spec.protocol, p.spec.protocol);
  EXPECT_EQ(q.spec.params.n, p.spec.params.n);
  EXPECT_EQ(q.spec.params.k, p.spec.params.k);
  EXPECT_EQ(q.spec.inputs, p.spec.inputs);
  EXPECT_EQ(q.spec.byzantine_ids, p.spec.byzantine_ids);
  EXPECT_EQ(q.spec.byzantine_kind, p.spec.byzantine_kind);
  ASSERT_EQ(q.spec.moves.size(), p.spec.moves.size());
  EXPECT_EQ(q.spec.moves[0].split256, 100);
  EXPECT_EQ(q.spec.moves[1].echo_mode, 0);
  ASSERT_EQ(q.spec.crashes.size(), 2u);
  EXPECT_FALSE(q.spec.crashes[0].by_phase);
  EXPECT_EQ(q.spec.crashes[0].victim, 3);
  EXPECT_TRUE(q.spec.crashes[1].by_phase);
  EXPECT_EQ(q.spec.seed, p.spec.seed);
  EXPECT_EQ(q.spec.phi_weight, p.spec.phi_weight);
  EXPECT_EQ(q.spec.net_drop_permille, 50u);
  EXPECT_EQ(q.tape_seed, p.tape_seed);
  EXPECT_EQ(q.tape, p.tape);
  EXPECT_TRUE(q.expect.present);
  EXPECT_EQ(q.expect.steps, 777u);
  EXPECT_EQ(q.expect.trace_digest, p.expect.trace_digest);
  EXPECT_EQ(q.expect.state_digest, p.expect.state_digest);
}

TEST(Plan, MinimalPlanRoundTrips) {
  SchedulePlan p;
  p.spec.protocol = adversary::ProtocolKind::fail_stop;
  p.spec.params = {3, 1};
  p.spec.inputs = {Value::one, Value::zero, Value::one};
  const std::string text = p.serialize();
  const SchedulePlan q = SchedulePlan::parse_string(text);
  EXPECT_EQ(q.serialize(), text);
  EXPECT_FALSE(q.expect.present);
  EXPECT_TRUE(q.tape.empty());
}

TEST(Plan, ContentHashTracksBytes) {
  SchedulePlan p = rich_plan();
  const std::uint64_t h = p.content_hash();
  EXPECT_EQ(h, rich_plan().content_hash());
  p.tape_seed ^= 1;
  EXPECT_NE(p.content_hash(), h);
}

TEST(Plan, ParseRejectsMalformedInput) {
  // Missing the version header entirely.
  EXPECT_THROW((void)SchedulePlan::parse_string("protocol fig2\nend\n"),
               std::runtime_error);
  // Unknown directive.
  EXPECT_THROW((void)SchedulePlan::parse_string(
                   "rcp-plan-v1\nprotocol fig2\nn 3\nk 0\ninputs 010\n"
                   "bogus-key 1\nend\n"),
               std::runtime_error);
  // Truncated file: no `end` terminator.
  EXPECT_THROW((void)SchedulePlan::parse_string(
                   "rcp-plan-v1\nprotocol fig2\nn 3\nk 0\ninputs 010\n"),
               std::runtime_error);
  // Inputs bitstring disagreeing with n.
  EXPECT_THROW((void)SchedulePlan::parse_string(
                   "rcp-plan-v1\nprotocol fig2\nn 4\nk 0\ninputs 010\nend\n"),
               std::runtime_error);
}

TEST(Plan, ParseReportsLineNumbers) {
  try {
    (void)SchedulePlan::parse_string(
        "rcp-plan-v1\nprotocol fig2\nn 3\nk 0\ninputs 010\nwat\nend\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    // Messages carry file-style positions: "rcp-plan-v1:6: unknown key ...".
    EXPECT_NE(std::string(e.what()).find(":6:"), std::string::npos)
        << e.what();
  }
}

/// A minimal valid plan with `line` as its line 6.
std::string plan_with(const std::string& line) {
  return "rcp-plan-v1\nprotocol fig2\nn 7\nk 2\ninputs 0101010\n" + line +
         "\nend\n";
}

/// Expects `line` to be rejected with a diagnostic naming line 6.
void expect_rejected(const std::string& line) {
  SCOPED_TRACE(line);
  try {
    (void)SchedulePlan::parse_string(plan_with(line));
    ADD_FAILURE() << "accepted: " << line;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rcp-plan-v1:6:"), std::string::npos)
        << e.what();
  }
}

TEST(Plan, ParseRejectsSingleValueKeysWithoutExactlyOneArgument) {
  for (const char* key :
       {"protocol", "n", "k", "inputs", "seed", "max-steps", "phi-weight",
        "net-drop-permille", "net-delay-max-ms", "net-disconnects",
        "tape-seed"}) {
    expect_rejected(key);
    expect_rejected(std::string(key) + " 1 1");
  }
}

TEST(Plan, ParseRejectsValuesThatDoNotFitTheirField) {
  // Each of these used to wrap or be masked into a different, valid plan.
  expect_rejected("n 4294967303");        // was n 7
  expect_rejected("k 4294967298");        // was k 2
  expect_rejected("tape 4294967297");     // was tape 1
  expect_rejected("phi-weight 4294967312");
  expect_rejected("net-disconnects 4294967296");
  expect_rejected("move 0 1 300 258");    // was move 0 1 44 2
  expect_rejected("move 0 1 44 258");
  expect_rejected("move 2 1 44 2");       // was move 1 1 44 2
  expect_rejected("byzantine silent 4294967296");
  expect_rejected("crash-step 4294967297 5");
  // An oversized tape is cut off at the cap, not read to the end.
  std::string tape_line = "tape";
  for (std::size_t i = 0; i <= kMaxTape; ++i) {
    tape_line += " 1";
  }
  expect_rejected(tape_line);
}

TEST(Plan, FieldMaximaRoundTrip) {
  SchedulePlan p = rich_plan();
  p.tape.push_back(0xffffffffU);
  p.spec.moves.push_back({Value::one, Value::one, 255, 2});
  const std::string text = p.serialize();
  EXPECT_EQ(SchedulePlan::parse_string(text).serialize(), text);
}

TEST(Plan, ParseAcceptsCommentsAndBlankLines) {
  const SchedulePlan q = SchedulePlan::parse_string(
      "# golden scenario\nrcp-plan-v1\n\nprotocol fig1\nn 3\nk 1\n"
      "# three processes\ninputs 101\nend\n");
  EXPECT_EQ(q.spec.protocol, adversary::ProtocolKind::fail_stop);
  EXPECT_EQ(q.spec.params.k, 1u);
}

TEST(Plan, ValidateEnforcesResilienceAndShape) {
  SchedulePlan p = rich_plan();
  EXPECT_NO_THROW(p.validate());

  // k above the malicious-model resilience bound for n=7 is rejected.
  SchedulePlan bad_k = rich_plan();
  bad_k.spec.params.k = 3;
  EXPECT_THROW(bad_k.validate(), std::runtime_error);

  // Byzantine cast larger than k.
  SchedulePlan bad_cast = rich_plan();
  bad_cast.spec.byzantine_ids = {0, 1, 2};
  EXPECT_THROW(bad_cast.validate(), std::runtime_error);

  // Cast ids must be strictly increasing (canonical form).
  SchedulePlan unsorted = rich_plan();
  unsorted.spec.byzantine_ids = {4, 1};
  EXPECT_THROW(unsorted.validate(), std::runtime_error);

  // Input vector must have exactly n entries.
  SchedulePlan bad_inputs = rich_plan();
  bad_inputs.spec.inputs.pop_back();
  EXPECT_THROW(bad_inputs.validate(), std::runtime_error);

  // phi weight is capped (200/256) so tapes cannot starve delivery forever.
  SchedulePlan bad_phi = rich_plan();
  bad_phi.spec.phi_weight = 255;
  EXPECT_THROW(bad_phi.validate(), std::runtime_error);
}

TEST(Plan, TokensAreStable) {
  EXPECT_STREQ(protocol_token(adversary::ProtocolKind::fail_stop), "fig1");
  EXPECT_STREQ(protocol_token(adversary::ProtocolKind::malicious), "fig2");
  EXPECT_STREQ(protocol_token(adversary::ProtocolKind::majority), "majority");
  EXPECT_STREQ(status_token(sim::RunStatus::all_decided), "decided");
  EXPECT_STREQ(status_token(sim::RunStatus::quiescent), "quiescent");
  EXPECT_STREQ(status_token(sim::RunStatus::step_limit), "step-limit");
}

}  // namespace
}  // namespace rcp::fuzz
