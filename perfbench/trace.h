// Bench-side tracing: spans recorded around the calls the benchmark makes
// into the library, plus a net::Transport decorator that times the transport
// and every attached node from outside the library.
//
// A span has a name, a start, an end, the span that caused it and the round
// it belongs to. Calls made once per report (submit, route, send, shard
// ingest) would produce millions of spans per round, so they are recorded as
// aggregate spans instead: one record per (name, parent, round) holding the
// first start, the last end, the summed busy time and the call count. The
// self time of a span is its busy time minus the busy time of its children.
//
// Spans stay in memory and are written once, when the run ends. Every
// process stamps spans with CLOCK_MONOTONIC (std::chrono::steady_clock), so
// spans from forked shard processes merge onto one time line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds, comparable across forked processes.
std::int64_t now_ns();
/// CPU time of the calling process (all threads), in nanoseconds.
std::int64_t process_cpu_ns();

/// Whether a measured round is traced: a traced run traces every other round
/// and leaves the rest untraced, to measure the tracing overhead.
inline bool traced_round(bool trace, std::uint64_t round) {
  return trace && round % 2 == 1;
}

struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;  ///< index into the same tracer's spans, -1 = root
  std::uint64_t round = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;  ///< end - start for a single span; summed calls
  std::uint64_t count = 0;   ///< calls folded into this record
  bool aggregate = false;
};

class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_round(std::uint64_t round) { round_ = round; }
  std::uint64_t round() const { return round_; }

  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a single span under the innermost open span; -1 when disabled.
  std::int32_t begin(std::uint32_t name, std::int64_t start_ns);
  /// Opens one call of an aggregate span under the innermost open span.
  std::int32_t begin_hot(std::uint32_t name, std::int64_t start_ns);
  /// Closes the innermost open span (`index` as returned by begin*).
  void end(std::int32_t index, std::int64_t start_ns);
  /// Records an already finished interval as a child of the innermost open
  /// span: a single span, or folded into an aggregate.
  void add_span(std::uint32_t name, std::int64_t start_ns,
                std::int64_t end_ns);
  void add_hot(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns);

 private:
  std::int32_t aggregate_index(std::uint32_t name);

  bool enabled_ = false;
  std::uint64_t round_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::map<std::tuple<std::uint32_t, std::int32_t, std::uint64_t>, std::int32_t>
      aggregates_;
  /// Per name: the aggregate last used, so a hot call under an unchanged
  /// parent skips the map lookup.
  struct LastAggregate {
    std::int32_t parent = -2;
    std::uint64_t round = 0;
    std::int32_t index = -1;
  };
  std::vector<LastAggregate> last_aggregate_;
};

/// RAII single span.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name)
      : tracer_(tracer),
        start_(tracer.enabled() ? now_ns() : 0),
        index_(tracer.begin(name, start_)) {}
  ~Scope() { tracer_.end(index_, start_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t start_;
  std::int32_t index_;
};

/// RAII call of an aggregate span.
class HotScope {
 public:
  HotScope(Tracer& tracer, std::uint32_t name)
      : tracer_(tracer),
        start_(tracer.enabled() ? now_ns() : 0),
        index_(tracer.begin_hot(name, start_)) {}
  ~HotScope() { tracer_.end(index_, start_); }
  HotScope(const HotScope&) = delete;
  HotScope& operator=(const HotScope&) = delete;

  std::int64_t start_ns() const { return start_; }

 private:
  Tracer& tracer_;
  std::int64_t start_;
  std::int32_t index_;
};

/// What a shard endpoint saw of one round's reports. Kept in every run (it
/// is one clock read per report), because the end of the ingest phase of a
/// remote shard is only visible from inside its process.
struct ShardRoundRecord {
  std::int64_t last_report_end_ns = 0;
  std::uint64_t reports = 0;
  /// Process CPU time sampled just before the round's first non-report
  /// message (its kSetup), or at the first report when none preceded it.
  std::int64_t cpu_at_start_ns = 0;
};

/// Counters kept in every run: exact, cheap, and needed by the gate.
struct EndpointCounters {
  std::uint64_t coordinator_responses = 0;  ///< kShardResponse delivered
  std::map<std::uint64_t, ShardRoundRecord> shard_rounds;
};

/// Transport decorator: wraps every attached node in a timing proxy and times
/// send() and the progress calls. Spans are named
///   net.send / net.send.user / net.send.shard   by message source
///   net.poll, net.poll.wait (poll time before the first delivery; a single
///     span from 100 us up, so idle time can be clipped to a round's window,
///     folded into an aggregate below that),
///   net.run_until_idle
///   dist.coord.on_message.{report,response,other}
///   dist.shard.on_message.report, dist.shard_op.<op>,
///   dist.shard.on_message.other
/// where <op> is the ShardOp decoded from the public StatsEnvelope, and a
/// kBatch is named by its sub-ops ("batch-crh_weights-aggregate").
class TracingTransport final : public dptd::net::Transport {
 public:
  TracingTransport(dptd::net::Transport& inner, Tracer& tracer,
                   dptd::net::NodeId coordinator);
  ~TracingTransport() override;

  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  void attach(dptd::net::NodeId id, dptd::net::Node& node) override;
  void detach(dptd::net::NodeId id) override;
  bool attached(dptd::net::NodeId id) const override;
  void send(dptd::net::Message message) override;
  double now() const override { return inner_.now(); }
  std::size_t poll(double deadline) override;
  std::size_t run_until_idle() override;
  void schedule(double delay, std::function<void()> fn) override {
    inner_.schedule(delay, std::move(fn));
  }
  const dptd::net::NetworkStats& stats() const override {
    return inner_.stats();
  }
  std::size_t undeliverable_to(dptd::net::NodeId destination) const override {
    return inner_.undeliverable_to(destination);
  }
  double drain_window_seconds() const override {
    return inner_.drain_window_seconds();
  }

  /// Shard processes own their tracer: from now on, each round's kSetup sets
  /// the tracer's round and enables it only when traced_round(trace, round).
  void follow_rounds(bool trace) {
    follow_rounds_ = true;
    trace_ = trace;
  }

  /// The traced entry point of an attached node (the generator hands user
  /// reports to the coordinator through it).
  dptd::net::Node& node(dptd::net::NodeId id);
  const EndpointCounters& counters() const { return counters_; }

 private:
  class Proxy;
  void deliver(Proxy& proxy, const dptd::net::Message& message);
  void end_poll_wait();
  std::uint32_t op_span_name(std::span<const std::uint8_t> payload);
  void follow_round(std::span<const std::uint8_t> payload);

  dptd::net::Transport& inner_;
  Tracer& tracer_;
  dptd::net::NodeId coordinator_;
  std::unordered_map<dptd::net::NodeId, std::unique_ptr<Proxy>> proxies_;
  EndpointCounters counters_;
  bool follow_rounds_ = false;
  bool trace_ = false;
  /// Process CPU sampled before the latest non-report delivery.
  std::int64_t pending_cpu_ns_ = 0;
  /// Record of the latest report's round (std::map nodes never move).
  ShardRoundRecord* last_record_ = nullptr;
  std::uint64_t last_record_round_ = 0;
  /// Start of the poll() call in progress whose first delivery is pending.
  std::int64_t poll_wait_start_ns_ = -1;

  std::uint32_t send_coord_, send_user_, send_shard_, poll_, poll_wait_,
      run_until_idle_, coord_report_, coord_response_, coord_other_,
      shard_report_, shard_other_, shard_request_;
};

}  // namespace perfbench
