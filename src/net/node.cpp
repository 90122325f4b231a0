#include "net/node.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "net/loop.hpp"
#include "net/reactor.hpp"
#include "runtime/seeding.hpp"

namespace rcp::net {

namespace {

using std::chrono::milliseconds;

constexpr std::size_t kReadChunk = 16 * 1024;
/// Dial retry backoff: initial, doubling to the cap.
constexpr std::uint32_t kReconnectInitialMs = 5;
constexpr std::uint32_t kReconnectMaxMs = 250;
/// A connection must complete its handshake within this long.
constexpr std::uint32_t kHandshakeTimeoutMs = 2000;
/// Idle wait cap — the loop always wakes at least this often.
constexpr int kWaitCapMs = 50;
/// Per-service read cap (chunks): a firehose peer yields the loop to its
/// siblings; the sticky readable flag keeps the remainder scheduled.
constexpr int kMaxReadRounds = 64;

[[nodiscard]] bool is_unarmed(Clock::time_point tp) noexcept {
  return tp == Clock::time_point{};
}

}  // namespace

// Context implementation bound to this node for the duration of one
// delivered message (or on_start). Sends enqueue onto the peer links /
// local inbox; the loop flushes after the callback returns, mirroring the
// simulator's atomic-step semantics.
class Node::LoopContext final : public sim::Context {
 public:
  explicit LoopContext(Node& node) noexcept : node_(node) {}

  [[nodiscard]] ProcessId self() const noexcept override {
    return node_.cfg_.id;
  }
  [[nodiscard]] std::uint32_t n() const noexcept override {
    return node_.cfg_.n;
  }
  // A LoopContext only ever exists inside a loop_* callback, so each
  // entry point re-states the affinity the virtual dispatch erased.
  [[nodiscard]] std::uint64_t step() const noexcept override {
    node_.assert_driving();
    return node_.stats_.events;
  }

  void send(ProcessId to, Bytes payload) override {
    node_.assert_driving();
    RCP_EXPECT(to < node_.cfg_.n, "send to unknown process");
    node_.send_from_process(to, std::move(payload));
  }

  void broadcast(const Bytes& payload) override {
    node_.assert_driving();
    for (ProcessId q = 0; q < node_.cfg_.n; ++q) {
      node_.send_from_process(q, payload);
    }
  }

  void decide(Value v) override {
    node_.assert_driving();
    node_.record_decision(v);
  }

  [[nodiscard]] Rng& rng() noexcept override {
    node_.assert_driving();
    return node_.process_rng_;
  }

 private:
  Node& node_;
};

Node::Node(NodeConfig cfg, std::unique_ptr<sim::Process> process)
    : cfg_(std::move(cfg)),
      process_(std::move(process)),
      process_rng_(runtime::trial_seed(cfg_.seed, cfg_.id)),
      faults_(cfg_.faults,
              runtime::trial_seed(cfg_.seed ^ runtime::kSplitMix64Gamma,
                                  cfg_.id)) {
  assert_driving();  // no loop yet: the constructing thread is the driver
  RCP_EXPECT(cfg_.n >= 1, "node needs a cluster size of at least 1");
  RCP_EXPECT(cfg_.id < cfg_.n, "node id outside [0, n)");
  RCP_EXPECT(process_ != nullptr, "null process");
  links_.resize(cfg_.n);
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    // Dial direction: higher id dials lower, so every pair has exactly
    // one connection and dial races are impossible.
    links_[p].init(p, PeerAddress{}, /*dialer=*/p < cfg_.id);
    links_[p].configure_rto(cfg_.limits.retransmit_timeout_ms);
  }
  stats_.peers.resize(cfg_.n);

  int fds[2] = {-1, -1};
  RCP_EXPECT(::pipe(fds) == 0, "pipe() failed");
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
  for (const int fd : fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

Node::~Node() {
  if (wake_rd_ >= 0) {
    ::close(wake_rd_);
  }
  if (wake_wr_ >= 0) {
    ::close(wake_wr_);
  }
}

std::uint16_t Node::listen() {
  assert_driving();  // setup phase, or loop_start on the loop thread
  if (!listening_) {
    listener_ = listen_on(kLoopbackHost, 0);
    listening_ = true;
  }
  return listener_.port;
}

void Node::set_peer(ProcessId p, PeerAddress addr) {
  assert_driving();  // setup phase: the loop is not running yet
  RCP_EXPECT(p < cfg_.n, "unknown peer id");
  links_[p].init(p, std::move(addr), links_[p].dialer());
}

void Node::request_stop() {
  stop_.store(true, std::memory_order_release);
  const char byte = 'w';
  [[maybe_unused]] const auto rc = ::write(wake_wr_, &byte, 1);
}

std::optional<Value> Node::decision() const noexcept {
  const int d = decision_published_.load(std::memory_order_acquire);
  if (d < 0) {
    return std::nullopt;
  }
  return d == 0 ? Value::zero : Value::one;
}

void Node::run() {
  EventLoop loop;
  loop.add(*this);
  loop.run();
}

// ---- EventLoop interface ----------------------------------------------

void Node::watch_fd(int fd, std::uint32_t sub) {
  loop_->watch(fd, (static_cast<std::uint64_t>(loop_index_) << 32) | sub);
}

void Node::loop_start(EventLoop& loop, std::uint32_t index,
                      Clock::time_point now) {
  loop_ = &loop;
  loop_index_ = index;
  listen();
  watch_fd(wake_rd_, kSubWake);
  wake_watched_ = true;
  watch_fd(listener_.fd.get(), kSubListener);
  listener_watched_ = true;
  LoopContext ctx(*this);
  process_->on_start(ctx);
  after_event();
  if (cfg_.limits.idle_tick_ms != 0) {
    next_idle_tick_ = now + milliseconds(cfg_.limits.idle_tick_ms);
  }
}

void Node::loop_event(std::uint32_t sub, unsigned mask) {
  if (sub == kSubWake) {
    char drain[64];
    while (::read(wake_rd_, drain, sizeof(drain)) > 0) {
    }
    return;
  }
  if (sub == kSubListener) {
    listener_readable_ = true;
    return;
  }
  if ((sub & kSubPendingBit) != 0) {
    for (PendingConn& pc : pending_) {
      if (pc.token == sub) {
        pc.readable = true;
        break;
      }
    }
    return;
  }
  if (sub >= links_.size()) {
    return;
  }
  PeerLink& link = links_[sub];
  if (!link.fd.valid()) {
    return;
  }
  // kError folds into readable: the next read() observes the error/EOF
  // and the link resets through the normal path.
  if ((mask & (Reactor::kRead | Reactor::kError)) != 0) {
    link.ev_readable = true;
  }
  if ((mask & Reactor::kWrite) != 0) {
    link.ev_writable = true;
  }
}

void Node::loop_service(Clock::time_point now) {
  apply_due_disconnects(now);
  start_due_dials(now);
  if (listener_readable_) {
    accept_new_connections(now);
  }
  service_pending(now);
  service_links(now);
  if (crash_pending_) {
    return;
  }
  deliver_local_once();
  if (crash_pending_) {
    return;
  }
  check_timers(now);
  if (cfg_.limits.idle_tick_ms != 0 && now >= next_idle_tick_) {
    // Service tick: give the process a null step (the paper's phi) so it
    // can originate work that arrived outside the message stream.
    LoopContext ctx(*this);
    process_->on_null(ctx);
    after_event();
    next_idle_tick_ = now + milliseconds(cfg_.limits.idle_tick_ms);
    if (crash_pending_) {
      return;
    }
  }

  // Flush sends generated by deliveries / retransmit rewinds, and
  // recompute backpressure from the resulting queue depths.
  for (PeerLink& link : links_) {
    if (link.fd.valid()) {
      flush_link(link, now);
    }
    const bool pause =
        link.queue_depth() >= cfg_.limits.backpressure_high_water;
    if (pause && !link.read_paused) {
      ++stats_.read_pauses;
    }
    link.read_paused = pause;
  }
}

int Node::loop_timeout_ms(Clock::time_point now) const {
  auto best = now + milliseconds(kWaitCapMs);
  const auto consider = [&](Clock::time_point tp) {
    if (!is_unarmed(tp) && tp < best) {
      best = tp;
    }
  };
  for (const PeerLink& link : links_) {
    if (link.dialer() && link.state == PeerLink::State::idle) {
      consider(link.next_dial_at);
    }
    consider(link.handshake_deadline);
    if (link.in_flight()) {
      consider(link.retransmit_deadline);
    }
    if (link.state == PeerLink::State::established) {
      const auto eligible = link.next_eligible_at();
      if (eligible != Clock::time_point::max()) {
        consider(eligible);
      }
    }
  }
  for (const PendingConn& pc : pending_) {
    consider(pc.deadline);
  }
  if (!local_inbox_.empty()) {
    // Self-requeued messages retry on a short tick instead of spinning.
    consider(now + milliseconds(1));
  }
  if (cfg_.limits.idle_tick_ms != 0) {
    consider(next_idle_tick_);
  }
  const auto delta = best - now;
  if (delta <= Clock::duration::zero()) {
    return 0;
  }
  const auto ms =
      std::chrono::duration_cast<milliseconds>(delta).count() + 1;
  return static_cast<int>(std::min<long long>(ms, kWaitCapMs));
}

bool Node::loop_has_ready_work() const noexcept {
  if (listener_readable_) {
    return true;
  }
  for (const PendingConn& pc : pending_) {
    if (pc.readable) {
      return true;
    }
  }
  for (const PeerLink& link : links_) {
    if (!link.fd.valid() || !link.ev_readable) {
      continue;
    }
    if (link.state == PeerLink::State::hello_sent ||
        link.state == PeerLink::State::connecting ||
        (link.state == PeerLink::State::established && !link.read_paused)) {
      return true;
    }
  }
  return false;
}

bool Node::loop_finished() const noexcept {
  return stop_.load(std::memory_order_acquire) || crash_pending_;
}

void Node::loop_abort(const char* what) {
  error_ = what;
  stop_.store(true, std::memory_order_release);
}

void Node::loop_finish() {
  close_all();
  if (crash_pending_) {
    crashed_.store(true, std::memory_order_release);
  }
  finished_.store(true, std::memory_order_release);
}

// ---- Connection management --------------------------------------------

void Node::apply_due_disconnects(Clock::time_point now) {
  for (const ProcessId p : faults_.due_disconnects(stats_.msgs_delivered)) {
    if (p < cfg_.n && p != cfg_.id) {
      pending_cuts_.push_back(p);
    }
  }
  // Only an established link is cut. Self-deliveries can reach an event's
  // count while the link is still being dialed; cutting it then (or
  // skipping it) would spend the planned disconnect without ever running
  // the reconnect path, so the cut waits for the link to come up.
  std::erase_if(pending_cuts_, [&](ProcessId p) {
    PeerLink& link = links_[p];
    if (link.state != PeerLink::State::established) {
      return false;
    }
    reset_link(link, now);
    return true;
  });
}

void Node::start_due_dials(Clock::time_point now) {
  for (PeerLink& link : links_) {
    if (!link.dialer() || link.state != PeerLink::State::idle ||
        link.fd.valid() || link.next_dial_at > now) {
      continue;
    }
    Fd fd = dial_start(link.addr());
    if (!fd.valid()) {
      // Immediate refusal — peer not up yet; back off and retry.
      link.backoff_ms =
          link.backoff_ms == 0
              ? kReconnectInitialMs
              : std::min(link.backoff_ms * 2, kReconnectMaxMs);
      link.next_dial_at = now + milliseconds(link.backoff_ms);
      continue;
    }
    if (cfg_.limits.so_sndbuf != 0) {
      set_sndbuf(fd, cfg_.limits.so_sndbuf);
    }
    link.fd = std::move(fd);
    link.state = PeerLink::State::connecting;
    link.handshake_deadline = now + milliseconds(kHandshakeTimeoutMs);
    watch_fd(link.fd.get(), link.peer());
  }
}

void Node::accept_new_connections(Clock::time_point now) {
  listener_readable_ = false;
  while (true) {
    Fd conn = accept_on(listener_.fd);
    if (!conn.valid()) {
      break;
    }
    if (cfg_.limits.so_sndbuf != 0) {
      set_sndbuf(conn, cfg_.limits.so_sndbuf);
    }
    PendingConn pc;
    pc.fd = std::move(conn);
    pc.deadline = now + milliseconds(kHandshakeTimeoutMs);
    pc.token = kSubPendingBit | (pending_token_seq_++ & 0x7FFFFFFFu);
    // The hello may already sit in the kernel buffer from before the
    // registration; start readable so the first service pass reads.
    pc.readable = true;
    watch_fd(pc.fd.get(), pc.token);
    pending_.push_back(std::move(pc));
  }
}

void Node::service_pending(Clock::time_point now) {
  for (std::size_t i = 0; i < pending_.size();) {
    PendingConn& pc = pending_[i];
    bool drop = false;
    if (pc.readable) {
      std::byte buf[kReadChunk];
      while (true) {
        const ssize_t got = ::read(pc.fd.get(), buf, sizeof(buf));
        if (got > 0) {
          pc.decoder.feed({buf, static_cast<std::size_t>(got)});
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          pc.readable = false;
          break;
        }
        if (got < 0 && errno == EINTR) {
          continue;
        }
        drop = true;  // EOF or hard error before the handshake finished
        break;
      }
      if (!drop) {
        try {
          if (const auto frame = pc.decoder.next()) {
            if (frame->type == FrameType::hello && frame->n == cfg_.n &&
                frame->node_id < cfg_.n && frame->node_id > cfg_.id) {
              attach_pending(i, frame->node_id);
              continue;  // pending_[i] replaced by erase; do not ++i
            }
            drop = true;  // wrong identity or direction
          }
        } catch (const DecodeError&) {
          drop = true;
        }
      }
    }
    if (!drop && pc.deadline <= now) {
      drop = true;  // handshake timeout
    }
    if (drop) {
      loop_->unwatch(pc.fd.get());
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void Node::attach_pending(std::size_t index, ProcessId peer) {
  const auto now = Clock::now();
  PeerLink& link = links_[peer];
  if (link.fd.valid()) {
    // The peer abandoned its previous connection (one-sided close) and
    // dialed again; the new connection supersedes the stale one.
    reset_link(link, now);
  }
  link.fd = std::move(pending_[index].fd);
  link.decoder = std::move(pending_[index].decoder);
  const bool had_bytes_buffered = pending_[index].readable;
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
  // Re-address the registration from the pending token to the peer id.
  loop_->change(link.fd.get(),
                (static_cast<std::uint64_t>(loop_index_) << 32) |
                    link.peer());
  link.ev_readable = had_bytes_buffered;
  link.ev_writable = true;  // fresh socket: optimistically writable
  link.write_buf.clear();
  link.write_off = 0;
  append_hello(link.write_buf, cfg_.id, cfg_.n);  // handshake reply
  establish_link(link);
  // Frames that arrived right behind the hello are already buffered in
  // the decoder; process them now.
  process_link_input(link);
  if (link.fd.valid()) {
    flush_link(link, now);
  }
}

void Node::establish_link(PeerLink& link) {
  link.state = PeerLink::State::established;
  link.handshake_deadline = {};
  link.retransmit_deadline = {};
  if (link.ever_connected) {
    ++link.counters.reconnects;
  }
  link.ever_connected = true;
  link.backoff_ms = 0;
  link.stale_acks = 0;
  // Retransmit everything unacked: bytes in flight on the old connection
  // may be lost; the receiver's dedupe discards what did arrive. The
  // mirror image holds inbound: the peer rewinds too, so duplicates of
  // already-delivered seqs are expected, not spurious retransmits.
  link.rewind_unsent();
  link.expect_rewind_dups();
  if (link.delivered_seq() > 0) {
    // Tell the peer where our inbound stream stands so it can release
    // acked frames immediately after the reconnect.
    link.ack_pending = true;
  }
}

void Node::reset_link(PeerLink& link, Clock::time_point now) {
  if (link.fd.valid() && loop_ != nullptr) {
    loop_->unwatch(link.fd.get());
  }
  link.fd.reset();
  link.decoder = FrameDecoder{};
  link.write_buf.clear();
  link.write_off = 0;
  link.ack_pending = false;
  link.read_paused = false;
  link.stale_acks = 0;
  link.ev_readable = false;
  link.ev_writable = false;
  link.handshake_deadline = {};
  link.retransmit_deadline = {};
  link.state = PeerLink::State::idle;
  if (link.dialer()) {
    link.backoff_ms = link.backoff_ms == 0
                          ? kReconnectInitialMs
                          : std::min(link.backoff_ms * 2, kReconnectMaxMs);
    link.next_dial_at = now + milliseconds(link.backoff_ms);
  }
}

void Node::service_links(Clock::time_point now) {
  for (PeerLink& link : links_) {
    if (!link.fd.valid()) {
      continue;
    }
    if (link.state == PeerLink::State::connecting) {
      if (link.ev_writable || link.ev_readable) {
        link.ev_readable = false;
        if (dial_result(link.fd) != 0) {
          reset_link(link, now);
          continue;
        }
        append_hello(link.write_buf, cfg_.id, cfg_.n);
        link.state = PeerLink::State::hello_sent;
        flush_link(link, now);
      }
      continue;
    }

    const bool may_read =
        link.state == PeerLink::State::hello_sent || !link.read_paused;
    if (may_read && link.ev_readable) {
      if (!read_socket(link)) {
        reset_link(link, now);
        continue;
      }
      try {
        process_link_input(link);
      } catch (const DecodeError&) {
        reset_link(link, now);
        continue;
      }
      if (crash_pending_) {
        return;
      }
    }
    if (link.fd.valid()) {
      flush_link(link, now);
    }
  }
}

bool Node::read_socket(PeerLink& link) {
  // Drain to EAGAIN: edge-triggered epoll reports only transitions, so
  // stopping at a short read could strand buffered bytes forever. The
  // round cap bounds one link's share of the loop; the sticky flag keeps
  // an over-cap link scheduled for the next pass.
  std::byte buf[kReadChunk];
  for (int round = 0; round < kMaxReadRounds; ++round) {
    const ssize_t got = ::read(link.fd.get(), buf, sizeof(buf));
    if (got > 0) {
      link.counters.bytes_in += static_cast<std::uint64_t>(got);
      link.decoder.feed({buf, static_cast<std::size_t>(got)});
      continue;
    }
    if (got == 0) {
      return false;  // orderly EOF
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      link.ev_readable = false;
      return true;
    }
    if (errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;  // cap hit; ev_readable stays set
}

void Node::process_link_input(PeerLink& link) {
  const auto now = Clock::now();
  while (link.fd.valid()) {
    const auto frame = link.decoder.next();
    if (!frame.has_value()) {
      return;
    }
    switch (link.state) {
      case PeerLink::State::hello_sent: {
        if (frame->type != FrameType::hello ||
            frame->node_id != link.peer() || frame->n != cfg_.n) {
          reset_link(link, now);
          return;
        }
        establish_link(link);
        break;
      }
      case PeerLink::State::established: {
        switch (frame->type) {
          case FrameType::data:
            deliver_data(link, Frame(*frame));
            break;
          case FrameType::ack: {
            const std::size_t before = link.queue_depth();
            link.on_ack(frame->seq, now, &stats_.latency);
            if (link.queue_depth() != before) {
              // Ack progress restarts (or disarms) the retransmit clock.
              link.stale_acks = 0;
              link.retransmit_deadline =
                  link.in_flight() ? now + milliseconds(link.rto_ms())
                                   : Clock::time_point{};
            } else if (link.in_flight() && ++link.stale_acks >= 2) {
              // Fast retransmit: the peer acks every arrival, so repeated
              // acks with no progress mean it is discarding ahead-of-stream
              // frames behind a loss. Rewind now instead of stalling for
              // the full retransmit timeout.
              link.stale_acks = 0;
              link.rewind_unsent();
              link.retransmit_deadline = now + milliseconds(link.rto_ms());
            }
            break;
          }
          case FrameType::hello:
            reset_link(link, now);  // handshake frames after establishment
            return;
        }
        break;
      }
      case PeerLink::State::idle:
      case PeerLink::State::connecting:
        reset_link(link, now);
        return;
    }
    if (crash_pending_ || stop_.load(std::memory_order_acquire)) {
      return;
    }
  }
}

void Node::deliver_data(PeerLink& link, Frame&& frame) {
  link.ack_pending = true;  // dup, gap and delivery all re-ack the stream
  if (link.classify_and_advance(frame.seq) != 0) {
    return;
  }
  ++stats_.msgs_delivered;
  sim::Envelope env;
  env.sender = link.peer();  // handshake-authenticated, never payload bytes
  env.receiver = cfg_.id;
  env.payload = std::move(frame.payload);
  env.seq = frame.seq;
  LoopContext ctx(*this);
  try {
    process_->on_message(ctx, env);
  } catch (const DecodeError&) {
    // Byzantine payload garbage is dropped, never fatal (same contract as
    // the protocols' own decode guards).
  }
  after_event();
  // Disconnect events are keyed on the delivered-message count, so they
  // must be applied between deliveries — a reset of the link currently
  // being drained discards the rest of its decoder buffer, exactly the
  // bytes that die with a real connection.
  apply_due_disconnects(Clock::now());
}

void Node::deliver_local_once() {
  if (local_inbox_.empty() || crash_pending_) {
    return;
  }
  // One pass over the messages present now; requeues generated during the
  // pass wait for the next loop iteration (the paper's requeue device
  // must not spin faster than network progress).
  std::vector<sim::Envelope> batch;
  batch.swap(local_inbox_);
  for (sim::Envelope& env : batch) {
    ++stats_.msgs_delivered;
    LoopContext ctx(*this);
    try {
      process_->on_message(ctx, env);
    } catch (const DecodeError&) {
    }
    after_event();
    apply_due_disconnects(Clock::now());
    if (crash_pending_ || stop_.load(std::memory_order_acquire)) {
      return;  // a crashed process loses its remaining buffered messages
    }
  }
}

void Node::send_from_process(ProcessId to, Bytes payload) {
  ++stats_.msgs_sent;
  if (to == cfg_.id) {
    sim::Envelope env;
    env.sender = cfg_.id;
    env.receiver = cfg_.id;
    env.payload = std::move(payload);
    env.seq = ++local_seq_;
    local_inbox_.push_back(std::move(env));
    return;
  }
  PeerLink& link = links_[to];
  const auto now = Clock::now();
  const std::uint32_t delay = faults_.delay_ms();
  if (delay > 0) {
    ++link.counters.delays_injected;
  }
  // At the queue bound the newest message is dropped (counted by the
  // link): the peer has been unable to drain for longer than the bound
  // covers, and to this sender it now behaves like a faulty process that
  // lost the message — which the protocols tolerate. The queued stream is
  // never cut, so delivery resumes seamlessly if the peer recovers.
  (void)link.enqueue(std::move(payload), now + milliseconds(delay),
                     cfg_.limits.max_queued_frames, now);
}

void Node::record_decision(Value v) {
  if (decision_.has_value()) {
    RCP_INVARIANT(*decision_ == v,
                  "process attempted to change its one-shot decision");
    return;
  }
  decision_ = v;
  decision_published_.store(static_cast<int>(value_index(v)),
                            std::memory_order_release);
}

void Node::after_event() {
  ++stats_.events;
  const Phase phase = process_->phase();
  phase_published_.store(phase, std::memory_order_release);
  if (cfg_.crash_at_phase.has_value() && phase >= *cfg_.crash_at_phase) {
    crash_pending_ = true;  // fail-stop: death without warning messages
  }
}

void Node::check_timers(Clock::time_point now) {
  for (PeerLink& link : links_) {
    if (!link.fd.valid()) {
      continue;
    }
    if ((link.state == PeerLink::State::connecting ||
         link.state == PeerLink::State::hello_sent) &&
        !is_unarmed(link.handshake_deadline) &&
        link.handshake_deadline <= now) {
      reset_link(link, now);
      continue;
    }
    if (link.state == PeerLink::State::established && link.in_flight() &&
        !is_unarmed(link.retransmit_deadline) &&
        link.retransmit_deadline <= now) {
      // No ack progress: assume loss (injected or real) and go back to
      // the first unacked frame. The RTO doubles each time this fires so
      // an unlucky estimate cannot melt the link into a rewind storm.
      link.rewind_unsent();
      link.backoff_rto();
      link.retransmit_deadline = now + milliseconds(link.rto_ms());
    }
  }
}

void Node::flush_link(PeerLink& link, Clock::time_point now) {
  if (link.state == PeerLink::State::established && link.ack_pending) {
    append_ack(link.write_buf, link.delivered_seq());
    link.ack_pending = false;
  }
  if (!link.ev_writable) {
    return;  // known-blocked; wait for the kernel's writability edge
  }
  const bool frames = link.state == PeerLink::State::established;
  const auto arm_retransmit = [&](const WritevPlan::CommitResult& res) {
    if (res.advanced && is_unarmed(link.retransmit_deadline)) {
      link.retransmit_deadline = now + milliseconds(link.rto_ms());
    }
  };
  while (true) {
    plan_.build(link, now, frames, [this] {
      assert_driving();  // lambda body escapes the enclosing REQUIRES
      return faults_.should_drop();
    });
    if (plan_.empty()) {
      return;
    }
    if (plan_.iov_count() == 0) {
      // Every candidate was drop-injected: nothing to write, but the
      // cursor still advances (the retransmit timer recovers them).
      arm_retransmit(plan_.commit(link, 0));
      continue;
    }
    msghdr mh{};
    mh.msg_iov = plan_.iov();
    mh.msg_iovlen = plan_.iov_count();
    const ssize_t wrote = ::sendmsg(link.fd.get(), &mh, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Leading drop-injected frames still advance; real bytes stay.
        arm_retransmit(plan_.commit(link, 0));
        link.ev_writable = false;
        return;
      }
      reset_link(link, now);
      return;
    }
    arm_retransmit(plan_.commit(link, static_cast<std::size_t>(wrote)));
    if (static_cast<std::size_t>(wrote) < plan_.total_bytes()) {
      // Short write: the kernel buffer filled mid-batch; the remainder of
      // the partial frame now sits in write_buf awaiting the next edge.
      link.ev_writable = false;
      return;
    }
  }
}

void Node::close_all() {
  const auto now = Clock::now();
  for (ProcessId p = 0; p < cfg_.n; ++p) {
    PeerLink& link = links_[p];
    if (link.fd.valid()) {
      reset_link(link, now);
    }
    stats_.peers[p] = link.counters;
  }
  for (PendingConn& pc : pending_) {
    if (pc.fd.valid() && loop_ != nullptr) {
      loop_->unwatch(pc.fd.get());
    }
  }
  pending_.clear();
  if (listener_watched_) {
    loop_->unwatch(listener_.fd.get());
    listener_watched_ = false;
  }
  listener_.fd.reset();
  listening_ = false;
  if (wake_watched_) {
    loop_->unwatch(wake_rd_);
    wake_watched_ = false;
  }
}

}  // namespace rcp::net
