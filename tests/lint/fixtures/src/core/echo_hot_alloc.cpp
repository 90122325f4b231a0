// Fixture: allocation on the Byzantine echo path. The real tree lists
// src/core/echo_engine.cpp, malicious.cpp and quorum.hpp under
// [allocation] (tools/lint_rules.toml); this mirrors that coverage with one
// violation per growth-call class the echo rewrite banned. Expected:
//   line 10: [hot-alloc] .reserve()
//   line 11: [hot-alloc] ->insert()
//   line 12: [hot-alloc] new
// The suppressed emplace on line 14 is a suppression, not an error.
void echo_hot_alloc(std::vector<int>& tally, std::vector<int>* deferred) {
  tally.reserve(64);
  deferred->insert(deferred->begin(), 1);
  int* slot = new int(3);
  // rcp-lint: allow(hot-alloc) fixture: dedup table sized once at startup
  tally.emplace(tally.begin(), 5);
}
