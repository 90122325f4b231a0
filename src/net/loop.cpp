#include "net/loop.hpp"

#include <algorithm>
#include <exception>

#include "net/node.hpp"

namespace rcp::net {

void EventLoop::run() {
  auto now = Clock::now();
  // This thread is now the driver of every attached node; each batch of
  // loop_* calls below re-asserts the affinity capability for the
  // analyzers (see Node::assert_driving).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    node.assert_driving();
    try {
      node.loop_start(*this, static_cast<std::uint32_t>(i), now);
    } catch (const std::exception& e) {
      node.assert_driving();  // catch blocks re-enter the analysis fresh
      node.loop_abort(e.what());
    }
  }

  while (true) {
    now = Clock::now();
    std::size_t active = 0;
    for (Node* node : nodes_) {
      if (node->finished()) {
        continue;
      }
      node->assert_driving();
      if (!node->loop_finished()) {
        try {
          node->loop_service(now);
        } catch (const std::exception& e) {
          node->assert_driving();
          node->loop_abort(e.what());
        }
      }
      if (node->loop_finished()) {
        node->loop_finish();
      } else {
        ++active;
      }
    }
    if (active == 0) {
      return;
    }

    now = Clock::now();
    int timeout_ms = 0x7fffffff;
    bool ready_now = false;
    for (Node* node : nodes_) {
      if (node->finished()) {
        continue;
      }
      node->assert_driving();
      timeout_ms = std::min(timeout_ms, node->loop_timeout_ms(now));
      ready_now = ready_now || node->loop_has_ready_work();
    }
    reactor_.wait(ready_now ? 0 : timeout_ms);
    for (const ReactorEvent& ev : reactor_.events()) {
      const auto idx = static_cast<std::size_t>(ev.token >> 32);
      if (idx < nodes_.size() && !nodes_[idx]->finished()) {
        Node& node = *nodes_[idx];
        node.assert_driving();
        node.loop_event(static_cast<std::uint32_t>(ev.token), ev.mask);
      }
    }
  }
}

}  // namespace rcp::net
