// A pass-through net::Transport that shows every sent message to a callback
// before forwarding it: lets a test watch the protocol's frames (count the
// ones carrying an op) or act at an exact point of the wire choreography
// (crash a shard just before a given request reaches it).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "crowd/protocol.h"
#include "dist/stats_wire.h"
#include "net/transport.h"

namespace dptd::dist {

class TapTransport final : public net::Transport {
 public:
  explicit TapTransport(net::Transport& inner) : inner_(inner) {}

  /// Runs on every send, before the message is handed to the inner
  /// transport. Unset = pure pass-through.
  std::function<void(const net::Message&)> on_send;

  void attach(net::NodeId id, net::Node& node) override {
    inner_.attach(id, node);
  }
  void detach(net::NodeId id) override { inner_.detach(id); }
  bool attached(net::NodeId id) const override { return inner_.attached(id); }
  void send(net::Message message) override {
    if (on_send) on_send(message);
    inner_.send(std::move(message));
  }
  double now() const override { return inner_.now(); }
  std::size_t poll(double deadline) override { return inner_.poll(deadline); }
  std::size_t run_until_idle() override { return inner_.run_until_idle(); }
  void schedule(double delay, std::function<void()> fn) override {
    inner_.schedule(delay, std::move(fn));
  }
  const net::NetworkStats& stats() const override { return inner_.stats(); }
  std::size_t undeliverable_to(net::NodeId destination) const override {
    return inner_.undeliverable_to(destination);
  }
  double drain_window_seconds() const override {
    return inner_.drain_window_seconds();
  }

 private:
  net::Transport& inner_;
};

/// The envelope of a coordinator request or shard response, or nullopt for
/// any other message.
inline std::optional<crowd::StatsEnvelope> stats_envelope(
    const net::Message& message) {
  const auto type = static_cast<crowd::MessageType>(message.type);
  if (type != crowd::MessageType::kShardRequest &&
      type != crowd::MessageType::kShardResponse) {
    return std::nullopt;
  }
  try {
    return crowd::StatsEnvelope::decode(message.payload);
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

/// True when a request envelope carries `op`, plain or inside its kBatch.
inline bool request_carries(const crowd::StatsEnvelope& env, ShardOp op) {
  if (env.op == static_cast<std::uint8_t>(op)) return true;
  if (env.op != static_cast<std::uint8_t>(ShardOp::kBatch)) return false;
  for (const BatchItem& item : BatchBody::decode(env.body).items) {
    if (item.op == op) return true;
  }
  return false;
}

}  // namespace dptd::dist
