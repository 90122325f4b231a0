#include "net/peer.hpp"

#include <algorithm>
#include <cmath>

namespace rcp::net {

void OutboundRing::grow() {
  const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<Outbound> next(cap);
  for (std::size_t i = 0; i < size_; ++i) {
    next[i] = std::move((*this)[i]);
  }
  slots_ = std::move(next);
  head_ = 0;
  mask_ = cap - 1;
}

bool PeerLink::enqueue(Bytes payload, Clock::time_point eligible_at,
                       std::size_t max_queued,
                       Clock::time_point enqueued_at) {
  if (queue_.size() >= max_queued) {
    ++counters.overflow_drops;
    return false;
  }
  Outbound out;
  out.seq = assign_seq();
  encode_data_header(out.header, out.seq, payload.size());
  out.payload = std::move(payload);
  out.eligible_at = eligible_at;
  out.enqueued_at =
      enqueued_at == Clock::time_point{} ? eligible_at : enqueued_at;
  queue_.push_back(std::move(out));
  ++counters.msgs_out;
  counters.queue_depth = queue_.size();
  counters.queue_peak = std::max(counters.queue_peak, queue_.size());
  return true;
}

void PeerLink::on_ack(std::uint64_t acked, Clock::time_point now,
                      LatencyHistogram* latency) noexcept {
  if (!queue_.empty() && queue_[0].seq <= acked) {
    // Ack progress: the link is alive, so any timeout backoff can relax
    // back to the estimator-derived RTO.
    rto_current_ms_ = rto_has_sample_ ? rto_derived_ms_ : rto_current_ms_;
  }
  while (!queue_.empty() && queue_[0].seq <= acked) {
    if (now != Clock::time_point{}) {
      const auto waited = now - queue_[0].enqueued_at;
      const std::uint64_t ns =
          waited > Clock::duration::zero()
              ? static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        waited)
                        .count())
              : 0;
      if (latency != nullptr) {
        latency->record(ns);
      }
      if (!queue_[0].retransmitted) {  // Karn: ambiguous samples excluded
        note_rtt(static_cast<double>(ns) / 1e6);
      }
    }
    queue_.pop_front();
    if (unsent_ > 0) {
      --unsent_;
    }
  }
  counters.queue_depth = queue_.size();
}

void PeerLink::note_rtt(double sample_ms) noexcept {
  if (!rto_has_sample_) {
    // RFC 6298 §2.2: first measurement seeds both estimators.
    srtt_ms_ = sample_ms;
    rttvar_ms_ = sample_ms / 2.0;
    rto_has_sample_ = true;
  } else {
    // RFC 6298 §2.3: rttvar before srtt, beta = 1/4, alpha = 1/8.
    rttvar_ms_ =
        0.75 * rttvar_ms_ + 0.25 * std::abs(srtt_ms_ - sample_ms);
    srtt_ms_ = 0.875 * srtt_ms_ + 0.125 * sample_ms;
  }
  const double rto = srtt_ms_ + std::max(1.0, 4.0 * rttvar_ms_);
  rto_derived_ms_ = static_cast<std::uint32_t>(
      std::clamp(rto, static_cast<double>(kRtoMinMs),
                 static_cast<double>(kRtoMaxMs)));
  rto_current_ms_ = rto_derived_ms_;
}

void PeerLink::backoff_rto() noexcept {
  if (rto_has_sample_) {
    rto_current_ms_ = std::min(rto_current_ms_ * 2, kRtoMaxMs);
  }
}

void PeerLink::rewind_unsent() noexcept {
  counters.retransmits += unsent_;
  for (std::size_t i = 0; i < unsent_; ++i) {
    queue_[i].retransmitted = true;
  }
  unsent_ = 0;
}

Clock::time_point PeerLink::next_eligible_at() const noexcept {
  if (unsent_ >= queue_.size()) {
    return Clock::time_point::max();
  }
  return queue_[unsent_].eligible_at;
}

void PeerLink::clear_queue() noexcept {
  queue_.clear();
  unsent_ = 0;
  counters.queue_depth = 0;
}

int PeerLink::classify_and_advance(std::uint64_t seq) noexcept {
  if (seq < next_expected_) {
    ++counters.dup_frames;
    if (!gap_since_delivery_ && !rewind_dups_expected_) {
      // No loss episode and no reconnect explains this duplicate: the
      // sender's retransmit fired while our ack was still in flight.
      ++counters.spurious_retransmits;
    }
    return -1;
  }
  if (seq > next_expected_) {
    ++counters.gap_frames;
    gap_since_delivery_ = true;  // a rewind is now genuinely needed
    return 1;
  }
  ++next_expected_;
  ++counters.msgs_in;
  gap_since_delivery_ = false;
  rewind_dups_expected_ = false;
  return 0;
}

WritevPlan::CommitResult WritevPlan::commit(PeerLink& link,
                                            std::size_t written) const {
  CommitResult res;
  link.counters.bytes_out += written;
  std::size_t left = written;

  const std::size_t buf_take = std::min(left, buf_bytes_);
  link.write_off += buf_take;
  left -= buf_take;
  if (link.write_off == link.write_buf.size()) {
    link.write_buf.clear();
    link.write_off = 0;
  }

  for (std::size_t i = 0; i < frame_count_; ++i) {
    const FrameSlot& fs = frames_[i];
    if (fs.dropped) {
      // A drop-injected frame "transmits" zero bytes; its fate does not
      // depend on the kernel, only on every earlier frame having been
      // consumed — which this in-order walk guarantees.
      ++link.counters.drops_injected;
      link.advance_unsent();
      ++res.frames_dropped;
      res.advanced = true;
      continue;
    }
    if (left == 0) {
      break;
    }
    if (left >= fs.bytes) {
      left -= fs.bytes;
      link.advance_unsent();
      ++res.frames_sent;
      res.advanced = true;
      continue;
    }
    // Partial frame: the kernel took a prefix. Spill the remainder into
    // write_buf (the only copy on the egress path, and only under
    // backpressure) so the stream stays byte-exact, then stop — later
    // frames were not reached.
    const Outbound& f = link.frame_at(link.unsent_index());
    const std::size_t consumed = left;
    if (consumed < f.header.size()) {
      link.write_buf.insert(link.write_buf.end(),
                            f.header.begin() +
                                static_cast<std::ptrdiff_t>(consumed),
                            f.header.end());
      const auto span = f.payload.span();
      link.write_buf.insert(link.write_buf.end(), span.begin(), span.end());
    } else {
      const auto span = f.payload.span();
      link.write_buf.insert(
          link.write_buf.end(),
          span.begin() +
              static_cast<std::ptrdiff_t>(consumed - f.header.size()),
          span.end());
    }
    link.advance_unsent();
    ++res.frames_sent;
    res.advanced = true;
    break;
  }
  return res;
}

}  // namespace rcp::net
