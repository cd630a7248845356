#include "workloads.h"

#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "crowd/ingest_pipeline.h"
#include "crowd/protocol.h"
#include "crowd/server.h"
#include "data/sharding.h"
#include "dist/shard_node.h"
#include "net/network.h"
#include "net/simulator.h"
#include "net/socket_transport.h"
#include "truth/crh.h"

namespace perfbench {

namespace {

using dptd::crowd::MessageType;
using dptd::dist::Coordinator;
using dptd::dist::DistributedOutcome;
using dptd::dist::MethodSpec;
using dptd::net::NodeId;

constexpr std::size_t kMillion = 1'000'000;
/// The vote workload's users: a 1M-user vote round takes about 6 s, too few
/// rounds for a steady median in one run.
constexpr std::size_t kVoteUsers = 250'000;
/// Shard count, ingest workers and CRH threads of the in-process workload.
/// No workload keeps more than three threads or processes busy at once, so
/// on a 4-core host one core is left to everything else and the timings
/// measure the library, not the scheduler.
constexpr std::size_t kInprocShards = 4;
constexpr std::size_t kInprocWorkers = 2;
constexpr std::size_t kInprocCrhThreads = 2;
constexpr std::size_t kUdsShards = 2;
constexpr std::size_t kSimShards = 4;
/// Reports submitted between two transport progress calls.
constexpr std::size_t kUdsPumpEvery = 4'096;
constexpr std::size_t kSimPumpEvery = 16'384;

// Both methods stop at a fixed iteration count below their natural
// convergence on these inputs (CRH needs 6+ at 1M users, vote 4+), so every
// seed does the same work per round: otherwise the seed's iteration count,
// not the code, would set the run-to-run spread of the round timings.
constexpr std::size_t kCrhIterations = 5;
constexpr std::size_t kVoteIterations = 3;

dptd::truth::CrhConfig crh_config() {
  dptd::truth::CrhConfig crh;
  crh.convergence.tolerance = 1e-6;
  crh.convergence.max_iterations = kCrhIterations;
  return crh;
}

std::span<const std::uint32_t> warm_up_slice(const Inputs& inputs) {
  const std::size_t n =
      std::max<std::size_t>(1, inputs.submission.size() / 100);
  return {inputs.submission.data(), n};
}

void sum_stats(const std::vector<dptd::crowd::ShardIngestStats>& stats,
               RoundSample& sample) {
  for (const auto& s : stats) {
    sample.received += s.reports_received;
    sample.duplicates += s.duplicates_ignored;
    sample.malformed += s.malformed_reports;
    sample.rejected += s.rejected_reports;
    sample.invalid_labels += s.invalid_labels;
  }
}

dptd::net::NetworkStats delta(const dptd::net::NetworkStats& after,
                              const dptd::net::NetworkStats& before) {
  dptd::net::NetworkStats d;
  d.messages_sent = after.messages_sent - before.messages_sent;
  d.messages_delivered = after.messages_delivered - before.messages_delivered;
  d.messages_dropped = after.messages_dropped - before.messages_dropped;
  d.messages_undeliverable =
      after.messages_undeliverable - before.messages_undeliverable;
  d.bytes_sent = after.bytes_sent - before.bytes_sent;
  d.bytes_delivered = after.bytes_delivered - before.bytes_delivered;
  return d;
}

// ---------------------------------------------------------------------------
// inproc-crh-1m: IngestPipeline -> finalize_shards -> from_shards ->
// Crh::run_sharded, no transport.

class InprocCrh final : public Workload {
 public:
  InprocCrh(const WorkloadConfig& config, Tracer& tracer)
      : config_(config),
        tracer_(tracer),
        pipeline_(dptd::crowd::IngestPipelineConfig{kInprocWorkers}),
        crh_([] {
          auto crh = crh_config();
          crh.num_threads = kInprocCrhThreads;
          return crh;
        }()) {}

  void open(const Inputs& inputs, const Corpus& corpus) override {
    plan_ = dptd::data::ShardPlan::create(inputs.spec.users, kInprocShards,
                                          config_.block_size);
    std::vector<NodeId> participants(inputs.spec.users);
    for (std::size_t s = 0; s < participants.size(); ++s) participants[s] = s;
    index_.build(participants);
    pipeline_.begin_round(plan_, inputs.spec.objects, 1);
    std::size_t rejected = 0;
    submit(warm_up_slice(inputs), corpus, 1, rejected);
    pipeline_.finalize_shards();
  }

  RoundSample run_round(std::uint64_t round, const Inputs& inputs,
                        const Corpus& corpus) override {
    RoundSample sample;
    sample.round = round;
    const std::int64_t cpu_start = process_cpu_ns();
    sample.start_ns = now_ns();
    {
      Scope round_span(tracer_, tracer_.intern("round"));
      run_phases(round, inputs, corpus, sample);
    }
    sample.end_ns = now_ns();
    sample.cpu_ns = process_cpu_ns() - cpu_start;
    return sample;
  }

 private:
  void run_phases(std::uint64_t round, const Inputs& inputs,
                  const Corpus& corpus, RoundSample& sample) {
    {
      Scope span(tracer_, tracer_.intern("crowd.begin_round"));
      pipeline_.begin_round(plan_, inputs.spec.objects, round);
    }
    {
      Scope ingest(tracer_, tracer_.intern("ingest"));
      sample.ingest_start_ns = now_ns();
      submit(inputs.submission, corpus, round, sample.rejected);
      Scope drain(tracer_, tracer_.intern("crowd.drain"));
      pipeline_.drain();
    }
    sample.ingest_end_ns = sample.close_start_ns = now_ns();
    sample.submitted = inputs.submission.size();
    sum_stats(pipeline_.shard_stats(), sample);
    {
      Scope close(tracer_, tracer_.intern("close"));
      std::optional<dptd::data::ShardedMatrix> matrix;
      {
        Scope finalize(tracer_, tracer_.intern("data.finalize"));
        matrix.emplace(dptd::data::ShardedMatrix::from_shards(
            plan_, pipeline_.finalize_shards(), inputs.spec.objects));
      }
      sample.claims = matrix->observation_count();
      Scope run(tracer_, tracer_.intern("truth.run_sharded"));
      dptd::truth::Result result = crh_.run_sharded(*matrix);
      sample.iterations = result.iterations;
      sample.truths = std::move(result.truths);
    }
    sample.aggregated = true;
  }

  /// The network front end: peek the header, check the round, resolve the
  /// row, hand the encoded report to the pipeline.
  void submit(std::span<const std::uint32_t> users, const Corpus& corpus,
              std::uint64_t round, std::size_t& rejected) {
    const std::uint32_t submit_span = tracer_.intern("crowd.submit_view");
    for (const std::uint32_t user : users) {
      const auto payload = corpus.payload(user);
      const auto header = dptd::crowd::Report::peek_header(payload);
      const auto row =
          header.has_value() ? index_.row_of(header->user_id) : std::nullopt;
      if (!row.has_value() || header->round != round) {
        ++rejected;
        continue;
      }
      HotScope scope(tracer_, submit_span);
      pipeline_.submit_view(*row, payload);
    }
  }

  WorkloadConfig config_;
  Tracer& tracer_;
  dptd::crowd::IngestPipeline pipeline_;
  dptd::truth::Crh crh_;
  dptd::data::ShardPlan plan_;
  dptd::crowd::ParticipantIndex index_;
};

// ---------------------------------------------------------------------------
// Distributed workloads: a Coordinator in the benchmark process over a
// TracingTransport, shards behind it.

class DistWorkload : public Workload {
 public:
  DistWorkload(const WorkloadConfig& config, Tracer& tracer)
      : config_(config), tracer_(tracer) {}

  RoundSample run_round(std::uint64_t round, const Inputs& inputs,
                        const Corpus& corpus) override {
    RoundSample sample;
    sample.round = round;
    const std::uint64_t responses_before =
        transport_->counters().coordinator_responses;
    const std::int64_t cpu_start = process_cpu_ns();
    sample.start_ns = now_ns();
    DistributedOutcome outcome;
    {
      Scope round_span(tracer_, tracer_.intern("round"));
      outcome = run_phases(round, inputs, corpus, sample);
    }
    sample.end_ns = now_ns();
    sample.cpu_ns = process_cpu_ns() - cpu_start;
    sample.aggregated = outcome.completed && outcome.aggregated &&
                        !outcome.degraded;
    sum_stats(outcome.shard_stats, sample);
    sample.rejected += outcome.reports_unroutable;
    sample.undeliverable = outcome.reports_undeliverable;
    sample.iterations = outcome.result.iterations;
    sample.iteration_messages = outcome.iteration_messages;
    sample.iteration_bytes = outcome.iteration_bytes;
    sample.resends = outcome.resends;
    sample.stale_responses = outcome.stale_responses;
    sample.responses =
        transport_->counters().coordinator_responses - responses_before;
    sample.truths = std::move(outcome.result.truths);
    return sample;
  }

 protected:
  DistributedOutcome run_phases(std::uint64_t round, const Inputs& inputs,
                                const Corpus& corpus, RoundSample& sample) {
    {
      Scope span(tracer_, tracer_.intern("dist.begin_round"));
      if (!coordinator_->begin_round(round, participants_)) {
        throw std::runtime_error("begin_round failed: no shard survived");
      }
    }
    {
      Scope ingest(tracer_, tracer_.intern("ingest"));
      const dptd::net::NetworkStats before = transport_->stats();
      sample.ingest_start_ns = now_ns();
      submit(inputs.submission, corpus);
      sample.ingest_end_ns = now_ns();
      sample.ingest_net = delta(transport_->stats(), before);
    }
    sample.submitted = inputs.submission.size();
    Scope close(tracer_, tracer_.intern("close"));
    const dptd::net::NetworkStats before = transport_->stats();
    sample.close_start_ns = now_ns();
    Scope span(tracer_, tracer_.intern("dist.close_round"));
    DistributedOutcome outcome = coordinator_->close_round();
    sample.close_net = delta(transport_->stats(), before);
    return outcome;
  }

  /// The generator loop of one round (or of the warm-up).
  virtual void submit(std::span<const std::uint32_t> users,
                      const Corpus& corpus) = 0;

  void open_coordinator(dptd::net::Transport& inner, std::size_t num_shards,
                        const Inputs& inputs) {
    transport_ =
        std::make_unique<TracingTransport>(inner, tracer_, kCoordinatorId);
    dptd::dist::CoordinatorConfig config;
    config.id = kCoordinatorId;
    config.num_objects = inputs.spec.objects;
    config.block_size = config_.block_size;
    // A 1M-user close can keep a shard busy for seconds; a resend would only
    // add a memoized replay, so the timeout is set well above that.
    config.rpc.op_timeout_seconds = 30.0;
    coordinator_ =
        std::make_unique<Coordinator>(config, config_.method, *transport_);
    for (std::size_t i = 0; i < num_shards; ++i) {
      coordinator_->add_shard(kShardBase + i);
    }
    participants_.resize(inputs.spec.users);
    for (std::size_t s = 0; s < participants_.size(); ++s) participants_[s] = s;
  }

  void warm_up(const Inputs& inputs, const Corpus& corpus) {
    if (!coordinator_->begin_round(1, participants_)) {
      throw std::runtime_error("warm-up begin_round failed");
    }
    submit(warm_up_slice(inputs), corpus);
    coordinator_->close_round();
  }

  MessageType report_type() const {
    return config_.inputs.categorical() ? MessageType::kLabelReport
                                        : MessageType::kReport;
  }

  WorkloadConfig config_;
  Tracer& tracer_;
  std::unique_ptr<TracingTransport> transport_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<NodeId> participants_;
};

// ---------------------------------------------------------------------------
// uds-crh-1m: forked ShardNode processes over UDS SocketTransport.

void write_records(const std::string& path, const Tracer& tracer,
                   const EndpointCounters& counters, std::int64_t cpu_exit_ns) {
  std::ofstream out(path);
  out << "cpu_exit " << cpu_exit_ns << '\n';
  for (const auto& [round, r] : counters.shard_rounds) {
    out << "round " << round << ' ' << r.last_report_end_ns << ' '
        << r.reports << ' ' << r.cpu_at_start_ns << '\n';
  }
  for (std::size_t i = 0; i < tracer.names().size(); ++i) {
    out << "name " << i << ' ' << tracer.names()[i] << '\n';
  }
  for (const Span& s : tracer.spans()) {
    out << "span " << s.name << ' ' << s.parent << ' ' << s.round << ' '
        << s.start_ns << ' ' << s.end_ns << ' ' << s.busy_ns << ' ' << s.count
        << ' ' << (s.aggregate ? 1 : 0) << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write shard records " + path);
}

ShardProcess read_records(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing shard records " + path);
  ShardProcess p;
  std::string tag;
  while (in >> tag) {
    if (tag == "cpu_exit") {
      in >> p.cpu_exit_ns;
    } else if (tag == "round") {
      std::uint64_t round = 0;
      ShardRoundRecord r;
      in >> round >> r.last_report_end_ns >> r.reports >>
          r.cpu_at_start_ns;
      p.rounds[round] = r;
    } else if (tag == "name") {
      std::size_t id = 0;
      in >> id;
      p.names.resize(id + 1);
      in >> p.names[id];
    } else if (tag == "span") {
      Span s;
      int aggregate = 0;
      in >> s.name >> s.parent >> s.round >> s.start_ns >> s.end_ns >>
          s.busy_ns >> s.count >> aggregate;
      s.aggregate = aggregate != 0;
      p.spans.push_back(s);
    } else {
      throw std::runtime_error("corrupt shard records " + path);
    }
  }
  return p;
}

[[noreturn]] void shard_process_main(NodeId id, const std::string& socket_path,
                                     const std::string& record_path,
                                     bool trace) {
  // Never outlive the benchmark, even if it dies without a shutdown.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  int code = 0;
  try {
    Tracer tracer;
    dptd::net::SocketTransportConfig config;
    config.listen = "unix:" + socket_path;
    dptd::net::SocketTransport inner(config);
    TracingTransport transport(inner, tracer, kCoordinatorId);
    transport.follow_rounds(trace);
    std::int64_t cpu_exit = 0;
    {
      dptd::dist::ShardNode node(id, transport);
      dptd::dist::ShardServiceConfig service;
      service.idle_timeout_seconds = 120.0;
      if (!dptd::dist::serve_shard(transport, node, service)) code = 2;
      cpu_exit = process_cpu_ns();
    }
    write_records(record_path, tracer, transport.counters(), cpu_exit);
  } catch (const std::exception&) {
    code = 1;
  }
  _exit(code);
}

class UdsCrh final : public DistWorkload {
 public:
  UdsCrh(const WorkloadConfig& config, Tracer& tracer, bool trace,
         const std::string& work_dir)
      : DistWorkload(config, tracer), trace_(trace) {
    static int fleet = 0;
    dir_ = work_dir + "/fleet-" + std::to_string(getpid()) + "-" +
           std::to_string(fleet++);
  }

  ~UdsCrh() override {
    // Abnormal exit path: never leave a shard process behind.
    coordinator_.reset();
    transport_.reset();
    socket_.reset();
    for (const pid_t pid : pids_) kill(pid, SIGKILL);
    for (const pid_t pid : pids_) waitpid(pid, nullptr, 0);
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  void start_fleet() override {
    // Return the heap an earlier set-up freed to the kernel first: forked
    // shards would otherwise map it too, and count it in their peak RSS.
    malloc_trim(0);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    for (std::size_t i = 0; i < kUdsShards; ++i) {
      const pid_t pid = fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        shard_process_main(kShardBase + i, socket_path(i), record_path(i),
                           trace_);
      }
      pids_.push_back(pid);
    }
  }

  void open(const Inputs& inputs, const Corpus& corpus) override {
    dptd::net::SocketTransportConfig config;
    for (std::size_t i = 0; i < kUdsShards; ++i) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      struct stat st {};
      while (::stat(socket_path(i).c_str(), &st) != 0) {
        if (std::chrono::steady_clock::now() > deadline) {
          throw std::runtime_error("shard process did not start listening");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      config.peers[kShardBase + i] = "unix:" + socket_path(i);
    }
    socket_ = std::make_unique<dptd::net::SocketTransport>(config);
    open_coordinator(*socket_, kUdsShards, inputs);
    warm_up(inputs, corpus);
  }

  std::vector<ShardProcess> stop() override {
    for (std::size_t i = 0; i < kUdsShards; ++i) {
      transport_->send(dptd::crowd::make_message(
          kCoordinatorId, kShardBase + i, MessageType::kShutdown, {}));
    }
    transport_->run_until_idle();
    std::vector<ShardProcess> processes;
    std::vector<long> max_rss;
    bool clean = true;
    for (const pid_t pid : pids_) {
      int status = 0;
      rusage usage{};
      if (wait4(pid, &status, 0, &usage) != pid) clean = false;
      clean &= WIFEXITED(status) && WEXITSTATUS(status) == 0;
      max_rss.push_back(usage.ru_maxrss);
    }
    pids_.clear();
    if (!clean) throw std::runtime_error("a shard process failed");
    for (std::size_t i = 0; i < kUdsShards; ++i) {
      processes.push_back(read_records(record_path(i)));
      processes.back().max_rss_kb = max_rss[i];
    }
    return processes;
  }

 protected:
  void submit(std::span<const std::uint32_t> users,
              const Corpus& corpus) override {
    dptd::net::Node& coordinator = transport_->node(kCoordinatorId);
    const MessageType type = report_type();
    std::size_t since_pump = 0;
    for (const std::uint32_t user : users) {
      const auto payload = corpus.payload(user);
      coordinator.on_message(dptd::crowd::make_message(
          user, kCoordinatorId, type, {payload.begin(), payload.end()}));
      if (++since_pump == kUdsPumpEvery) {
        transport_->run_until_idle();
        since_pump = 0;
      }
    }
    transport_->run_until_idle();
  }

 private:
  std::string socket_path(std::size_t i) const {
    return dir_ + "/s" + std::to_string(i) + ".sock";
  }
  std::string record_path(std::size_t i) const {
    return dir_ + "/s" + std::to_string(i) + ".records";
  }

  bool trace_;
  std::string dir_;
  std::vector<pid_t> pids_;
  std::unique_ptr<dptd::net::SocketTransport> socket_;
};

// ---------------------------------------------------------------------------
// sim-vote-250k: in-process ShardNodes on the net::Network simulator.

class SimVote final : public DistWorkload {
 public:
  using DistWorkload::DistWorkload;

  ~SimVote() override {
    coordinator_.reset();
    shards_.clear();
    transport_.reset();
  }

  void open(const Inputs& inputs, const Corpus& corpus) override {
    network_ = std::make_unique<dptd::net::Network>(
        sim_, dptd::net::LatencyModel{0.001, 0.0, 0.0}, 1);
    open_coordinator(*network_, kSimShards, inputs);
    for (std::size_t i = 0; i < kSimShards; ++i) {
      shards_.push_back(
          std::make_unique<dptd::dist::ShardNode>(kShardBase + i, *transport_));
    }
    warm_up(inputs, corpus);
  }

 protected:
  void submit(std::span<const std::uint32_t> users,
              const Corpus& corpus) override {
    const MessageType type = report_type();
    std::size_t since_pump = 0;
    for (const std::uint32_t user : users) {
      const auto payload = corpus.payload(user);
      transport_->send(dptd::crowd::make_message(
          user, kCoordinatorId, type, {payload.begin(), payload.end()}));
      if (++since_pump == kSimPumpEvery) {
        transport_->run_until_idle();
        since_pump = 0;
      }
    }
    transport_->run_until_idle();
  }

 private:
  dptd::net::Simulator sim_;
  std::unique_ptr<dptd::net::Network> network_;
  std::vector<std::unique_ptr<dptd::dist::ShardNode>> shards_;
};

}  // namespace

WorkloadConfig workload_config(const std::string& name, std::size_t users) {
  WorkloadConfig config;
  config.name = name;
  InputSpec& in = config.inputs;
  const bool vote = name == "sim-vote-250k";
  in.users = users != 0 ? users : vote ? kVoteUsers : kMillion;
  // Small smoke runs keep several fold blocks per shard.
  config.block_size = in.users >= 131'072 ? 4'096 : 128;
  if (name == "inproc-crh-1m" || name == "uds-crh-1m") {
    in.objects = 1'000;
    config.method.kind = MethodSpec::Kind::kCrh;
    config.method.crh = crh_config();
  } else if (vote) {
    in.objects = std::max<std::size_t>(1, in.users / 5);
    in.num_labels = 8;
    config.method.kind = MethodSpec::Kind::kVote;
    config.method.vote.num_labels = in.num_labels;
    config.method.vote.voting.max_iterations = kVoteIterations;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return config;
}

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        Tracer& tracer, bool trace,
                                        const std::string& work_dir) {
  if (config.name == "inproc-crh-1m") {
    return std::make_unique<InprocCrh>(config, tracer);
  }
  if (config.name == "uds-crh-1m") {
    return std::make_unique<UdsCrh>(config, tracer, trace, work_dir);
  }
  return std::make_unique<SimVote>(config, tracer);
}

}  // namespace perfbench
