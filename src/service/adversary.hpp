// Byzantine replicas for the KV service's adversary zoo.
//
// All three run as full mesh participants (they hold a real RbEngine and
// answer every block entry of other origins, so they do not slow correct
// instances down by silence) while attacking on top, in the one KV wire
// format (RbxBatch block entries):
//
//  - KvEquivocator originates blocks two-faced: under one tag it sends one
//    block to each half of the mesh, the two differing in contents or in
//    length, and echoes each story to the half that heard it. Bracha
//    consistency is the property under test: at most one of the two
//    blocks delivers anywhere, and the correct replicas' logs of its
//    stream stay prefixes of one another.
//  - KvBabbler sprays malformed payloads — noise, batches whose count,
//    entry kind or length disagrees with their bytes, empty blocks and
//    blocks over the window — plus well-formed echoes and readies for
//    instances that do not exist, and for tags inside correct origins'
//    blocks (seq-overlapping blocks). The hardened decoder and the
//    engine's range/retire drops are the property under test: correct
//    replicas absorb all of it without state change.
//  - KvLaneJammer pre-sends echoes and readies carrying garbage blocks
//    for *correct* origins' upcoming instances, trying to exhaust the
//    engine's first-come value lanes before the real block arrives. The
//    per-sender vote gate is the property under test: each jammer burns
//    at most one echo lane and one ready lane per instance, so the
//    victims' real blocks always tally and every stream still completes.
//
// Determinism: all randomness flows from Context::rng().
#pragma once

#include <cstdint>

#include "common/process.hpp"
#include "core/params.hpp"
#include "extensions/rb_engine.hpp"
#include "service/batcher.hpp"

namespace rcp::service {

struct KvAdversaryConfig {
  core::ConsensusParams params;
  std::uint32_t shards = 1;
  /// The replicas' origination window: the largest block they accept.
  std::uint32_t window = 64;
  /// Blocks the adversary originates per shard (equivocator), or seqs it
  /// jams per victim stream (lane jammer).
  std::uint32_t ops_per_shard = 4;
  /// Correct origins the lane jammer poisons (ids 0..victims-1).
  std::uint32_t victims = 0;
  /// Hard cap on attack sends, so the adversary cannot livelock the run.
  std::uint64_t send_budget = 20000;
};

class KvEquivocator final : public Process {
 public:
  explicit KvEquivocator(KvAdversaryConfig cfg);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Envelope& env) override;

 private:
  KvAdversaryConfig cfg_;
  ext::RbEngine engine_;
  RbxBatcher batcher_;
  std::uint64_t sends_left_;
};

class KvBabbler final : public Process {
 public:
  explicit KvBabbler(KvAdversaryConfig cfg);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Envelope& env) override;

 private:
  void babble(Context& ctx);

  KvAdversaryConfig cfg_;
  ext::RbEngine engine_;
  RbxBatcher batcher_;
  std::uint64_t sends_left_;
};

class KvLaneJammer final : public Process {
 public:
  explicit KvLaneJammer(KvAdversaryConfig cfg);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Envelope& env) override;

 private:
  KvAdversaryConfig cfg_;
  ext::RbEngine engine_;
  RbxBatcher batcher_;
  std::uint64_t sends_left_;
};

}  // namespace rcp::service
