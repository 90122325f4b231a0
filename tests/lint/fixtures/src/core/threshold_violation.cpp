// Fixture: inline quorum arithmetic in protocol code. Expected:
//   line 12: [threshold] n / 2
//   line 13: [threshold] (n + k) / 2
//   line 14: [threshold] 2 * k
//   line 21: [threshold] params_.k + 1 (member access)
//   line 22: [threshold] 2 * params_.k (member access)
//   line 23: [threshold] 2u * p->k (pointer member access)
struct Params {
  unsigned n, k;
};
bool threshold_violation(unsigned count, unsigned n, unsigned k) {
  const bool witness = count > n / 2;
  const unsigned echo_accept = (n + k) / 2 + 1;
  const unsigned ready = 2 * k + 1;
  // Not flagged: len / 2 is not a quorum shape for these patterns.
  const unsigned half_len = (count + 2) / 2;
  return witness && count >= echo_accept && count >= ready && half_len > 0;
}
bool member_thresholds(unsigned count, const Params& params_,
                       const Params* p) {
  const bool amplify = count >= params_.k + 1;
  const bool deliver = count >= 2 * params_.k + 1;
  const bool decide = count > 2u * p->k;
  // Not flagged: k + 10 and a field merely named like k are not k + 1.
  const unsigned wide = params_.k + 10 + params_.n;
  return amplify && deliver && decide && wide > 0;
}
