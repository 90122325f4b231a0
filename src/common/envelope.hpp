// Message envelopes carried by any of the repository's message systems.
//
// The envelope is transport-agnostic: the simulated asynchronous message
// system (sim/) and the real TCP transport (net/) both deliver protocol
// messages in this shape, which is what lets one Process implementation run
// unchanged over either. It therefore lives in common/, below the protocol
// cores, so that core code never depends on a transport layer.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace rcp {

/// One in-flight message. The message system stamps the true `sender`, which
/// gives the authenticated-identity guarantee the paper's malicious model
/// requires ("the message system must provide a way for correct processes to
/// verify the identity of the sender of each message"): Byzantine processes
/// may lie inside `payload` but cannot forge `sender`.
struct Envelope {
  ProcessId sender = 0;
  ProcessId receiver = 0;
  Bytes payload;
  /// Monotone sequence number unique across the whole simulation; makes
  /// delivery order independent of container iteration details.
  std::uint64_t seq = 0;
};

}  // namespace rcp

namespace rcp::sim {
// Historical spelling: the envelope began life inside the simulator and the
// whole tree refers to it as sim::Envelope. The alias keeps that spelling
// valid while the definition lives below the protocol cores.
using rcp::Envelope;
}  // namespace rcp::sim
