// Delivery policies: how the nondeterministic receive() choice is resolved.
//
// The paper postulates probabilistic behaviour of the message system: "at
// any phase, every possible view has some fixed probability [>= epsilon] of
// being the one seen". UniformDelivery realises that assumption (every
// buffered message equally likely). Other policies model arrival-order
// delivery and adversarial delay; the latter live in src/adversary.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "sim/mailbox.hpp"

namespace rcp::sim {

/// Chooses which buffered message (by index into mailbox.contents()) the
/// next receive() of `receiver` returns, or nullopt for the null value phi.
///
/// Contract: a returned index must be < mailbox.size(). Returning nullopt
/// models an arbitrarily long transmission delay; the simulator guarantees
/// global progress by bounding consecutive phi results (see SimConfig).
class DeliveryPolicy {
 public:
  virtual ~DeliveryPolicy() = default;

  [[nodiscard]] virtual std::optional<std::size_t> pick(
      ProcessId receiver, const Mailbox& mailbox, std::uint64_t now_step,
      Rng& rng) = 0;

  /// True if take() must preserve arrival order for this policy. Must be
  /// constant for the policy's lifetime: Simulation reads it once at
  /// construction. Every policy returns a constant; wrappers (the fuzz
  /// recorder) forward their inner policy's constant.
  [[nodiscard]] virtual bool order_preserving() const noexcept { return false; }
};

/// The paper's probabilistic message system: every buffered message is
/// equally likely to be the one received. With phi_probability > 0, a step
/// can also observe the null value even though the buffer is non-empty,
/// modelling arbitrarily long delays.
class UniformDelivery final : public DeliveryPolicy {
 public:
  explicit UniformDelivery(double phi_probability = 0.0);

  [[nodiscard]] std::optional<std::size_t> pick(ProcessId receiver,
                                                const Mailbox& mailbox,
                                                std::uint64_t now_step,
                                                Rng& rng) override;

 private:
  double phi_probability_;
};

/// First-in-first-out delivery per receiver (a well-behaved network). Note
/// the paper does NOT assume FIFO; this policy exists to show the protocols
/// also work under stronger orderings and to make traces easy to read.
class FifoDelivery final : public DeliveryPolicy {
 public:
  [[nodiscard]] std::optional<std::size_t> pick(ProcessId receiver,
                                                const Mailbox& mailbox,
                                                std::uint64_t now_step,
                                                Rng& rng) override;
  [[nodiscard]] bool order_preserving() const noexcept override { return true; }
};

/// Always delivers the *most recently sent* buffered message (LIFO). A
/// stress ordering: old messages can languish arbitrarily long, which
/// exercises the protocols' phase-catch-up paths.
class LifoDelivery final : public DeliveryPolicy {
 public:
  [[nodiscard]] std::optional<std::size_t> pick(ProcessId receiver,
                                                const Mailbox& mailbox,
                                                std::uint64_t now_step,
                                                Rng& rng) override;
};

[[nodiscard]] std::unique_ptr<DeliveryPolicy> make_uniform_delivery(
    double phi_probability = 0.0);
[[nodiscard]] std::unique_ptr<DeliveryPolicy> make_fifo_delivery();
[[nodiscard]] std::unique_ptr<DeliveryPolicy> make_lifo_delivery();

}  // namespace rcp::sim
