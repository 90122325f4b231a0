// net::Node — one protocol participant running over real sockets.
//
// A Node hosts exactly one sim::Process (Figure 1, Figure 2, Ben-Or,
// Bracha-87, a Byzantine strategy, ...) unchanged: the process sees the
// same sim::Context interface the simulator provides, but send/broadcast
// go out as framed TCP messages and on_message fires when a frame arrives
// from an authenticated peer. The mapping of the paper's model onto TCP:
//
//   * "fully connected" — a full mesh: node i dials every peer j < i and
//     accepts from every peer j > i (one connection per pair, no dial
//     races), with capped exponential backoff reconnect, so the mesh
//     self-heals through process restarts and injected disconnects;
//   * "the message system must provide a way ... to verify the identity
//     of the sender" — an identity handshake opens every connection, and
//     Envelope::sender is stamped from the handshake, never from payload
//     bytes: a Byzantine peer can lie inside the payload but cannot forge
//     its id, exactly the simulator's guarantee;
//   * "reliable, but ... arbitrary long transmission delay" — per-link
//     sequence numbers, cumulative acks and go-back-N retransmission make
//     delivery reliable across reconnects and injected drops; delivery
//     order across peers is whatever the sockets produce, which is the
//     asynchrony the protocols are designed for;
//   * atomic steps — the loop delivers one message at a time to the
//     process; sends performed during the callback are queued and flushed
//     after it returns, mirroring the simulator's step semantics.
//
// Self-sends (the paper's requeue device) loop through a local inbox that
// delivers at most one pass per loop iteration, so a process requeuing a
// future-phase message to itself waits for network progress instead of
// spinning.
//
// Threading: a Node is driven by exactly one net::EventLoop thread
// (net::EventLoop::add + run) — a loop of its own in the thread-per-node
// configuration, or one shared with its siblings. All loop_*
// callbacks, and everything they reach, are loop-thread-only.
// decision()/phase()/crashed()/finished() are safe from other threads
// while running; stats()/error() are valid after the loop finishes the
// node (joining the loop thread synchronizes).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/process.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/peer.hpp"
#include "net/socket.hpp"
#include "net/stats.hpp"

namespace rcp::net {

class EventLoop;

struct NodeLimits {
  /// Per-peer outbound queue bound; at the bound the newest message is
  /// dropped (to the sender the peer then behaves like a faulty process
  /// that lost the message — the queued stream stays intact).
  std::size_t max_queued_frames = 4096;
  /// Crossing this pauses reads from that peer (backpressure).
  std::size_t backpressure_high_water = 2048;
  /// Go-back-N rewind after this long with no ack progress, until the
  /// first RTT sample seeds the RFC 6298 estimator (see PeerLink::note_rtt
  /// and docs/NET.md).
  std::uint32_t retransmit_timeout_ms = 100;
  /// When non-zero, the loop invokes the process's on_null() at least every
  /// this many milliseconds. Consensus protocols are purely message-driven
  /// and leave this off; long-running services (the KV replica) use the
  /// tick to pull queued client ops even when no frame is in flight.
  std::uint32_t idle_tick_ms = 0;
  /// Test hook: when non-zero, applied to every link socket as SO_SNDBUF.
  /// Tiny values force short vectored writes, exercising the partial-frame
  /// spill path under realistic kernel behaviour.
  int so_sndbuf = 0;
};

struct NodeConfig {
  ProcessId id = 0;
  std::uint32_t n = 0;
  std::uint64_t seed = 1;
  FaultPlan faults;
  NodeLimits limits;
  /// Fail-stop injection: the node dies (closes everything, detaches from
  /// its loop) as soon as its process's phase() reaches this value.
  std::optional<Phase> crash_at_phase;
};

class Node {
 public:
  /// Takes ownership of the process. Throws on invalid config.
  Node(NodeConfig cfg, std::unique_ptr<sim::Process> process);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Binds the listener on an ephemeral loopback port now and returns it.
  /// Idempotent; the loop calls it at start if the caller did not.
  std::uint16_t listen();

  /// Fills in a peer's address (the cluster binds every listener first,
  /// then distributes the ephemeral ports). Set every peer before the
  /// loop runs.
  void set_peer(ProcessId p, PeerAddress addr);

  /// Thread-safe: asks the loop to finish this node. The node detaches
  /// while any siblings keep running; a loop whose nodes have all finished
  /// returns from EventLoop::run().
  void request_stop();

  // ---- Thread-safe observers (valid while running) -------------------

  [[nodiscard]] ProcessId id() const noexcept { return cfg_.id; }
  [[nodiscard]] std::optional<Value> decision() const noexcept;
  [[nodiscard]] Phase phase() const noexcept {
    return phase_published_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool crashed() const noexcept {
    return crashed_.load(std::memory_order_acquire);
  }
  /// True once the driving loop has torn this node down: its sockets are
  /// closed and it will never decide. (The shared-loop analogue of "the
  /// node thread returned".)
  [[nodiscard]] bool finished() const noexcept {
    return finished_.load(std::memory_order_acquire);
  }

  // ---- Post-run observers (valid after the loop thread is joined) -----

  // Exempt from lock analysis: the caller joined (or observed finished()
  // on) the driving loop thread, which synchronizes; there is no lock to
  // name for a happens-before edge established by thread teardown.
  [[nodiscard]] const NodeStats& stats() const noexcept
      RCP_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }
  /// Non-empty if the loop died on an exception.
  [[nodiscard]] const std::string& error() const noexcept
      RCP_NO_THREAD_SAFETY_ANALYSIS {
    return error_;
  }
  [[nodiscard]] sim::Process& process() noexcept { return *process_; }

 private:
  class LoopContext;
  friend class LoopContext;
  friend class EventLoop;

  /// States that the calling thread is the one driving this node — the
  /// EventLoop asserts it before every batch of loop_* calls, and the
  /// setup-phase entry points (constructor, listen, set_peer) assert it
  /// themselves: before the loop exists, the constructing thread is
  /// trivially the only driver.
  void assert_driving() const RCP_ASSERT_CAPABILITY(loop_affinity_) {}

  // ---- EventLoop interface (loop-thread-only) ------------------------

  void loop_start(EventLoop& loop, std::uint32_t index,
                  Clock::time_point now) RCP_REQUIRES(loop_affinity_);
  void loop_event(std::uint32_t sub, unsigned mask)
      RCP_REQUIRES(loop_affinity_);
  void loop_service(Clock::time_point now) RCP_REQUIRES(loop_affinity_);
  [[nodiscard]] int loop_timeout_ms(Clock::time_point now) const
      RCP_REQUIRES(loop_affinity_);
  [[nodiscard]] bool loop_has_ready_work() const noexcept
      RCP_REQUIRES(loop_affinity_);
  [[nodiscard]] bool loop_finished() const noexcept
      RCP_REQUIRES(loop_affinity_);
  void loop_abort(const char* what) RCP_REQUIRES(loop_affinity_);
  void loop_finish() RCP_REQUIRES(loop_affinity_);

  void start_due_dials(Clock::time_point now) RCP_REQUIRES(loop_affinity_);
  void apply_due_disconnects(Clock::time_point now)
      RCP_REQUIRES(loop_affinity_);
  void accept_new_connections(Clock::time_point now)
      RCP_REQUIRES(loop_affinity_);
  void service_pending(Clock::time_point now) RCP_REQUIRES(loop_affinity_);
  void service_links(Clock::time_point now) RCP_REQUIRES(loop_affinity_);
  void check_timers(Clock::time_point now) RCP_REQUIRES(loop_affinity_);
  void process_link_input(PeerLink& link) RCP_REQUIRES(loop_affinity_);
  [[nodiscard]] bool read_socket(PeerLink& link)
      RCP_REQUIRES(loop_affinity_);
  void attach_pending(std::size_t index, ProcessId peer)
      RCP_REQUIRES(loop_affinity_);
  void establish_link(PeerLink& link) RCP_REQUIRES(loop_affinity_);
  void reset_link(PeerLink& link, Clock::time_point now)
      RCP_REQUIRES(loop_affinity_);
  void flush_link(PeerLink& link, Clock::time_point now)
      RCP_REQUIRES(loop_affinity_);
  void deliver_data(PeerLink& link, Frame&& frame)
      RCP_REQUIRES(loop_affinity_);
  void deliver_local_once() RCP_REQUIRES(loop_affinity_);
  void send_from_process(ProcessId to, Bytes payload)
      RCP_REQUIRES(loop_affinity_);
  void record_decision(Value v) RCP_REQUIRES(loop_affinity_);
  void after_event() RCP_REQUIRES(loop_affinity_);
  void close_all() RCP_REQUIRES(loop_affinity_);
  void watch_fd(int fd, std::uint32_t sub) RCP_REQUIRES(loop_affinity_);

  /// A connection that said nothing yet: accepted, awaiting its hello.
  struct PendingConn {
    Fd fd;
    FrameDecoder decoder;
    Clock::time_point deadline;
    std::uint32_t token = 0;  ///< kSubPendingBit | serial
    bool readable = false;    ///< sticky readiness flag
  };

  /// The capability "I am the thread driving this node". Costless claim,
  /// not a lock: EventLoop::run asserts it per node, the setup phase
  /// asserts it on entry, and everything below marked RCP_GUARDED_BY is
  /// thereby statically confined to the driving thread.
  ThreadAffinity loop_affinity_;

  NodeConfig cfg_;  ///< immutable once the loop starts (observers read id)
  std::unique_ptr<sim::Process> process_;
  ListenSocket listener_ RCP_GUARDED_BY(loop_affinity_);
  bool listening_ RCP_GUARDED_BY(loop_affinity_) = false;
  /// Indexed by peer id; [self] unused.
  std::vector<PeerLink> links_ RCP_GUARDED_BY(loop_affinity_);
  std::vector<PendingConn> pending_ RCP_GUARDED_BY(loop_affinity_);
  Rng process_rng_ RCP_GUARDED_BY(loop_affinity_);
  FaultInjector faults_ RCP_GUARDED_BY(loop_affinity_);
  /// Peers whose disconnect event is due but whose link is not up yet.
  std::vector<ProcessId> pending_cuts_ RCP_GUARDED_BY(loop_affinity_);
  NodeStats stats_ RCP_GUARDED_BY(loop_affinity_);
  std::string error_ RCP_GUARDED_BY(loop_affinity_);
  /// Reusable vectored-send scratch (no allocations).
  WritevPlan plan_ RCP_GUARDED_BY(loop_affinity_);

  /// Set by loop_start, for registrations.
  EventLoop* loop_ RCP_GUARDED_BY(loop_affinity_) = nullptr;
  std::uint32_t loop_index_ RCP_GUARDED_BY(loop_affinity_) = 0;
  bool listener_readable_ RCP_GUARDED_BY(loop_affinity_) = false;
  bool wake_watched_ RCP_GUARDED_BY(loop_affinity_) = false;
  bool listener_watched_ RCP_GUARDED_BY(loop_affinity_) = false;
  std::uint32_t pending_token_seq_ RCP_GUARDED_BY(loop_affinity_) = 0;

  /// Self-send inbox (the paper's requeue device).
  std::vector<sim::Envelope> local_inbox_ RCP_GUARDED_BY(loop_affinity_);
  std::uint64_t local_seq_ RCP_GUARDED_BY(loop_affinity_) = 0;

  /// Loop-thread view, for the one-shot invariant.
  std::optional<Value> decision_ RCP_GUARDED_BY(loop_affinity_);
  bool crash_pending_ RCP_GUARDED_BY(loop_affinity_) = false;
  /// Armed when idle_tick_ms != 0.
  Clock::time_point next_idle_tick_ RCP_GUARDED_BY(loop_affinity_){};

  // Deliberately unguarded: set in the constructor, closed in the
  // destructor, and in between only read — the loop drains wake_rd_,
  // request_stop() (any thread) writes one byte to wake_wr_.
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<int> decision_published_{-1};
  std::atomic<std::uint64_t> phase_published_{0};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> finished_{false};
};

}  // namespace rcp::net
