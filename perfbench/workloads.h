// The three round workloads. Each drives the library from outside, through
// its public functions, as a closed loop: one generator thread submits the
// encoded reports of a round back-to-back at whatever rate the layer accepts,
// then closes the round and waits for the published truths.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "inputs.h"
#include "net/transport.h"
#include "trace.h"

namespace perfbench {

constexpr dptd::net::NodeId kCoordinatorId = 9'000'000;
constexpr dptd::net::NodeId kShardBase = 8'000'000;

struct WorkloadConfig {
  std::string name;
  InputSpec inputs;
  /// Canonical fold block size; the gate's reference uses the same one.
  std::size_t block_size = 4'096;
  /// Distributed workloads: the method the coordinator drives. The
  /// in-process workload runs spec.crh through Crh::run_sharded.
  dptd::dist::MethodSpec method;
};

/// Looks up a workload by name at `users` users (0 = the workload's own
/// size); throws std::invalid_argument for an unknown name.
WorkloadConfig workload_config(const std::string& name, std::size_t users);

/// One measured round, as the benchmark process saw it.
struct RoundSample {
  std::uint64_t round = 0;
  bool traced = false;
  bool aggregated = false;
  std::int64_t start_ns = 0;         ///< first call of the round
  std::int64_t ingest_start_ns = 0;  ///< first report submitted
  std::int64_t ingest_end_ns = 0;    ///< last report landed in its shard
  std::int64_t close_start_ns = 0;
  std::int64_t end_ns = 0;           ///< truths published
  std::int64_t cpu_ns = 0;           ///< benchmark-process CPU in the round
  std::size_t submitted = 0;         ///< report messages, duplicates included
  std::size_t received = 0;          ///< distinct reports counted
  std::size_t duplicates = 0;
  std::size_t malformed = 0;
  std::size_t rejected = 0;
  std::size_t invalid_labels = 0;
  std::size_t undeliverable = 0;
  std::size_t claims = 0;  ///< claims in the aggregated matrix, when visible
  std::size_t iterations = 0;
  std::size_t iteration_messages = 0;
  std::size_t iteration_bytes = 0;
  std::size_t resends = 0;
  std::size_t stale_responses = 0;
  std::size_t responses = 0;
  dptd::net::NetworkStats ingest_net;
  dptd::net::NetworkStats close_net;
  std::vector<double> truths;
};

/// What the forked shard processes of a fleet used and recorded.
struct ShardProcess {
  std::int64_t cpu_exit_ns = 0;  ///< process CPU when its service loop ended
  long max_rss_kb = 0;           ///< wait4 rusage
  std::map<std::uint64_t, ShardRoundRecord> rounds;
  std::vector<std::string> names;
  std::vector<Span> spans;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Starts the fleet. Runs before the set-up's inputs exist and after the
  /// heap of earlier set-ups is trimmed, so forked shard processes do not
  /// inherit (and double-count) the benchmark process's memory.
  virtual void start_fleet() {}
  /// Builds the serving side over the inputs and runs the warm-up round
  /// (round 1, the first 1% of the reports, no aggregation).
  virtual void open(const Inputs& inputs, const Corpus& corpus) = 0;
  /// One timed round. `corpus` holds the reports encoded for `round`.
  virtual RoundSample run_round(std::uint64_t round, const Inputs& inputs,
                                const Corpus& corpus) = 0;
  /// Shuts the fleet down and waits for every process it started.
  virtual std::vector<ShardProcess> stop() { return {}; }
};

/// `work_dir` holds the shard sockets and records of forked fleets.
std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        Tracer& tracer, bool trace,
                                        const std::string& work_dir);

}  // namespace perfbench
