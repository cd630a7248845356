#include "trace.h"

#include <time.h>

#include <stdexcept>

#include "crowd/protocol.h"
#include "dist/stats_wire.h"

namespace perfbench {

using dptd::crowd::MessageType;
using dptd::dist::ShardOp;

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// Tracer

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::int32_t Tracer::begin(std::uint32_t name, std::int64_t start_ns) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.round = round_;
  span.start_ns = start_ns;
  span.count = 1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

std::int32_t Tracer::aggregate_index(std::uint32_t name) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  if (last_aggregate_.size() <= name) last_aggregate_.resize(name + 1);
  LastAggregate& last = last_aggregate_[name];
  if (last.parent == parent && last.round == round_) return last.index;
  const auto key = std::make_tuple(name, parent, round_);
  const auto it = aggregates_.find(key);
  if (it != aggregates_.end()) {
    last = {parent, round_, it->second};
    return it->second;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.round = round_;
  span.start_ns = -1;
  span.aggregate = true;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  aggregates_.emplace(key, index);
  last = {parent, round_, index};
  return index;
}

std::int32_t Tracer::begin_hot(std::uint32_t name, std::int64_t start_ns) {
  if (!enabled_) return -1;
  const std::int32_t index = aggregate_index(name);
  Span& span = spans_[static_cast<std::size_t>(index)];
  if (span.start_ns < 0) span.start_ns = start_ns;
  stack_.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index, std::int64_t start_ns) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  if (span.aggregate) {
    span.busy_ns += end - start_ns;
    ++span.count;
  } else {
    span.busy_ns = end - start_ns;
  }
  stack_.pop_back();
}

void Tracer::add_span(std::uint32_t name, std::int64_t start_ns,
                      std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.round = round_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.busy_ns = end_ns - start_ns;
  span.count = 1;
  spans_.push_back(span);
}

void Tracer::add_hot(std::uint32_t name, std::int64_t start_ns,
                     std::int64_t end_ns) {
  if (!enabled_) return;
  Span& span = spans_[static_cast<std::size_t>(aggregate_index(name))];
  if (span.start_ns < 0) span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.busy_ns += end_ns - start_ns;
  ++span.count;
}


// ---------------------------------------------------------------------------
// TracingTransport

namespace {

const char* op_name(ShardOp op) {
  switch (op) {
    case ShardOp::kSetup: return "setup";
    case ShardOp::kFinalizeIngest: return "finalize_ingest";
    case ShardOp::kSetWeights: return "set_weights";
    case ShardOp::kMoments: return "moments";
    case ShardOp::kGather: return "gather";
    case ShardOp::kAggregate: return "aggregate";
    case ShardOp::kCollectWeights: return "collect_weights";
    case ShardOp::kCrhPrepare: return "crh_prepare";
    case ShardOp::kCrhLoss: return "crh_loss";
    case ShardOp::kCrhWeights: return "crh_weights";
    case ShardOp::kGtmPrepare: return "gtm_prepare";
    case ShardOp::kGtmStep: return "gtm_step";
    case ShardOp::kGtmFold: return "gtm_fold";
    case ShardOp::kCatdPrepare: return "catd_prepare";
    case ShardOp::kCatdWeights: return "catd_weights";
    case ShardOp::kGetTelemetry: return "get_telemetry";
    case ShardOp::kVotePrepare: return "vote_prepare";
    case ShardOp::kVoteScores: return "vote_scores";
    case ShardOp::kVoteDisagree: return "vote_disagree";
    case ShardOp::kVoteWeights: return "vote_weights";
    case ShardOp::kBatch: return "batch";
  }
  return "unknown";
}

bool is_report(std::uint32_t type) {
  return type == static_cast<std::uint32_t>(MessageType::kReport) ||
         type == static_cast<std::uint32_t>(MessageType::kLabelReport);
}

}  // namespace

class TracingTransport::Proxy final : public dptd::net::Node {
 public:
  Proxy(TracingTransport& owner, dptd::net::Node& node)
      : owner_(owner), node_(node) {}
  void on_message(const dptd::net::Message& message) override {
    owner_.deliver(*this, message);
  }
  dptd::net::Node& node() { return node_; }

 private:
  TracingTransport& owner_;
  dptd::net::Node& node_;
};

TracingTransport::TracingTransport(dptd::net::Transport& inner, Tracer& tracer,
                                   dptd::net::NodeId coordinator)
    : inner_(inner), tracer_(tracer), coordinator_(coordinator) {
  send_coord_ = tracer_.intern("net.send");
  send_user_ = tracer_.intern("net.send.user");
  send_shard_ = tracer_.intern("net.send.shard");
  poll_ = tracer_.intern("net.poll");
  poll_wait_ = tracer_.intern("net.poll.wait");
  run_until_idle_ = tracer_.intern("net.run_until_idle");
  coord_report_ = tracer_.intern("dist.coord.on_message.report");
  coord_response_ = tracer_.intern("dist.coord.on_message.response");
  coord_other_ = tracer_.intern("dist.coord.on_message.other");
  shard_report_ = tracer_.intern("dist.shard.on_message.report");
  shard_other_ = tracer_.intern("dist.shard.on_message.other");
  shard_request_ = tracer_.intern("dist.shard_op.undecoded");
}

TracingTransport::~TracingTransport() {
  for (const auto& [id, proxy] : proxies_) inner_.detach(id);
}

void TracingTransport::attach(dptd::net::NodeId id, dptd::net::Node& node) {
  auto proxy = std::make_unique<Proxy>(*this, node);
  inner_.attach(id, *proxy);
  proxies_[id] = std::move(proxy);
}

void TracingTransport::detach(dptd::net::NodeId id) {
  inner_.detach(id);
  proxies_.erase(id);
}

bool TracingTransport::attached(dptd::net::NodeId id) const {
  return inner_.attached(id);
}

dptd::net::Node& TracingTransport::node(dptd::net::NodeId id) {
  const auto it = proxies_.find(id);
  if (it == proxies_.end()) {
    throw std::invalid_argument("TracingTransport: node not attached");
  }
  return *it->second;
}

void TracingTransport::send(dptd::net::Message message) {
  std::uint32_t name = send_coord_;
  if (tracer_.enabled() && message.source != coordinator_) {
    name = proxies_.count(message.source) != 0 ? send_shard_ : send_user_;
  }
  HotScope scope(tracer_, name);
  inner_.send(std::move(message));
}

std::size_t TracingTransport::poll(double deadline) {
  HotScope scope(tracer_, poll_);
  poll_wait_start_ns_ = tracer_.enabled() ? scope.start_ns() : -1;
  const std::size_t delivered = inner_.poll(deadline);
  end_poll_wait();
  return delivered;
}

void TracingTransport::end_poll_wait() {
  if (poll_wait_start_ns_ < 0) return;
  constexpr std::int64_t kSingleSpanNs = 100'000;
  const std::int64_t end = now_ns();
  if (end - poll_wait_start_ns_ >= kSingleSpanNs) {
    tracer_.add_span(poll_wait_, poll_wait_start_ns_, end);
  } else {
    tracer_.add_hot(poll_wait_, poll_wait_start_ns_, end);
  }
  poll_wait_start_ns_ = -1;
}

std::size_t TracingTransport::run_until_idle() {
  HotScope scope(tracer_, run_until_idle_);
  return inner_.run_until_idle();
}

std::uint32_t TracingTransport::op_span_name(
    std::span<const std::uint8_t> payload) {
  dptd::crowd::StatsEnvelope envelope;
  try {
    envelope = dptd::crowd::StatsEnvelope::decode(payload);
  } catch (const std::exception&) {
    return shard_request_;
  }
  const auto op = static_cast<ShardOp>(envelope.op);
  if (op == ShardOp::kSetup) {
    try {
      tracer_.set_round(dptd::dist::SetupBody::decode(envelope.body).round);
    } catch (const std::exception&) {
    }
  }
  std::string name = "dist.shard_op.";
  name += op_name(op);
  if (op == ShardOp::kBatch) {
    try {
      for (const auto& item :
           dptd::dist::BatchBody::decode(envelope.body).items) {
        name += '-';
        name += op_name(item.op);
      }
    } catch (const std::exception&) {
      name += "-undecoded";
    }
  }
  return tracer_.intern(name);
}

void TracingTransport::follow_round(std::span<const std::uint8_t> payload) {
  try {
    const auto envelope = dptd::crowd::StatsEnvelope::decode(payload);
    if (static_cast<ShardOp>(envelope.op) != ShardOp::kSetup) return;
    const std::uint64_t round =
        dptd::dist::SetupBody::decode(envelope.body).round;
    tracer_.set_round(round);
    tracer_.set_enabled(traced_round(trace_, round));
  } catch (const std::exception&) {
  }
}

void TracingTransport::deliver(Proxy& proxy,
                               const dptd::net::Message& message) {
  end_poll_wait();
  const bool report = is_report(message.type);
  const bool to_coordinator = message.destination == coordinator_;
  if (to_coordinator) {
    if (message.type ==
        static_cast<std::uint32_t>(MessageType::kShardResponse)) {
      ++counters_.coordinator_responses;
      HotScope scope(tracer_, coord_response_);
      proxy.node().on_message(message);
    } else if (report) {
      HotScope scope(tracer_, coord_report_);
      proxy.node().on_message(message);
    } else {
      Scope scope(tracer_, coord_other_);
      proxy.node().on_message(message);
    }
    return;
  }
  if (report) {
    const auto header = dptd::crowd::Report::peek_header(message.payload);
    const std::uint64_t round = header.has_value() ? header->round : 0;
    if (last_record_ == nullptr || last_record_round_ != round) {
      last_record_ = &counters_.shard_rounds[round];
      last_record_round_ = round;
    }
    ShardRoundRecord& record = *last_record_;
    if (record.reports == 0) {
      record.cpu_at_start_ns =
          pending_cpu_ns_ > 0 ? pending_cpu_ns_ : process_cpu_ns();
    }
    {
      HotScope scope(tracer_, shard_report_);
      proxy.node().on_message(message);
    }
    record.last_report_end_ns = now_ns();
    ++record.reports;
    return;
  }
  pending_cpu_ns_ = process_cpu_ns();
  std::uint32_t name = shard_other_;
  if (message.type == static_cast<std::uint32_t>(MessageType::kShardRequest)) {
    if (follow_rounds_) follow_round(message.payload);
    name = tracer_.enabled() ? op_span_name(message.payload) : shard_request_;
  }
  Scope scope(tracer_, name);
  proxy.node().on_message(message);
}

}  // namespace perfbench
