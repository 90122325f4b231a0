// net::EventLoop — one reactor thread driving one or more Nodes.
//
// Thread-per-node burns a kernel thread and a poll set per participant;
// at n=100 that is 100 threads spinning over ~10k descriptors. The
// EventLoop multiplexes instead: every descriptor of every attached node
// registers with one Reactor under a token that packs (node index, per-
// node subject), and a single thread dispatches readiness to the owning
// node's state machine. Nodes attached to the same loop never touch each
// other's state — the loop is just a scheduler — so protocol semantics
// are identical to thread-per-node.
//
// Ownership rules (see docs/NET.md):
//   * add() all nodes before run(); the set is fixed while running.
//   * run() occupies the calling thread until every attached node
//     finished (stopped, crashed by schedule, or errored).
//   * watch()/change()/unwatch() are loop-thread-only — Nodes call them
//     from inside their loop_* callbacks, never from other threads.
//   * The only cross-thread entry points are Node::request_stop() and
//     the read-only published atomics (decision/phase/crashed/finished).
#pragma once

#include <cstdint>
#include <vector>

#include "net/reactor.hpp"

namespace rcp::net {

class Node;

/// Token layout: high 32 bits = node index within the loop, low 32 bits =
/// the node's subject. Peer links use their peer id; the reserved values
/// below cover the node's other descriptors. Pending (pre-handshake)
/// connections get kSubPendingBit | serial so each accepted fd is
/// individually addressable before it has a peer identity.
inline constexpr std::uint32_t kSubWake = 0xFFFFFFFFu;
inline constexpr std::uint32_t kSubListener = 0xFFFFFFFEu;
inline constexpr std::uint32_t kSubPendingBit = 0x80000000u;

class EventLoop {
 public:
  /// Registers a node with this loop. Call before run(); the node must
  /// outlive the loop's run().
  void add(Node& node) { nodes_.push_back(&node); }

  /// Drives all attached nodes until each has finished. Exceptions from
  /// one node's machinery abort that node only (recorded in its error()).
  void run();

  // ---- Registration facade (loop-thread-only, used by Node) ----------

  void watch(int fd, std::uint64_t token) { reactor_.add(fd, token); }
  void change(int fd, std::uint64_t token) { reactor_.modify(fd, token); }
  void unwatch(int fd) { reactor_.remove(fd); }

 private:
  Reactor reactor_;
  std::vector<Node*> nodes_;
};

}  // namespace rcp::net
