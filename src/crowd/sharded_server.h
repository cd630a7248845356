// The aggregation server: consistent user → shard routing in front of K
// independent ingestion shards, each owning an incrementally built sparse
// sub-matrix of its users' reports, with a round close that reduces
// per-shard sufficient statistics through
// truth::TruthDiscovery::run_sharded.
//
// Routing follows data::ShardPlan (canonical user blocks split contiguously
// across shards), so for any shard count the published truths are bitwise
// identical to the single-shard (K=1) configuration at the same canonical
// block size. Dedup and byzantine accounting happen per shard (a duplicate
// re-send always lands on the same shard as the original) and are rolled up
// into RoundOutcome.
//
// Every report takes one path: the network thread peeks the report header
// (round + user id), checks the kind against the round, resolves the row,
// and submits the raw payload to the server's crowd::IngestPipeline, whose
// per-shard crowd::ShardIngestor decodes, dedups, sanitizes and appends.
// ServerConfig::ingest_threads only picks where that runs: 0 ingests inline
// on the network thread, N >= 1 on worker threads behind bounded queues. The
// matrices are bitwise identical either way, because each shard's reports
// are ingested in arrival order. Round close drains every queue before
// finalizing.
//
// The server sees only perturbed reports; malformed or byzantine reports are
// dropped or sanitized and counted, never fatal.
//
// Early close: only the FIRST submission of a roster row can complete the
// roster, so that submission — and only it — triggers a drain and an exact
// distinct-reporter count; the round closes at once when the count is
// complete. Re-sends never re-trigger it, so duplicate floods cost no
// barriers. In every mode, a roster left short because a user's first
// report had an undecodable body (it was counted as rejected) closes at the
// collection deadline; a valid re-send from that user still ingests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crowd/ingest_pipeline.h"
#include "crowd/protocol.h"
#include "crowd/server.h"
#include "data/sharding.h"
#include "net/transport.h"
#include "truth/interface.h"

namespace dptd::crowd {

class ShardedServer final : public net::Node {
 public:
  /// `config.num_shards` requests the shard count; each round it is clamped
  /// to the number of canonical user blocks of that round's participant set
  /// (see data::ShardPlan::create).
  ShardedServer(ServerConfig config,
                std::unique_ptr<truth::TruthDiscovery> method,
                net::Transport& network);

  void on_message(const net::Message& message) override;

  /// Announces round `round` to `user_ids` and schedules the aggregation
  /// deadline. Results are available from `outcomes()` once the round has
  /// closed. The server is persistent: call again for each round of a
  /// campaign once the previous round has closed.
  void start_round(std::uint64_t round,
                   const std::vector<net::NodeId>& user_ids);

  /// Elastic scaling: changes the requested shard count, effective from the
  /// next start_round (results are bitwise K-invariant at equal
  /// stats_block_size, so resizing between rounds never perturbs published
  /// truths). Must not be called while a round is open.
  void set_num_shards(std::size_t num_shards);

  const std::vector<RoundOutcome>& outcomes() const { return outcomes_; }
  const ServerConfig& config() const { return config_; }
  /// The open (or most recent) round's routing plan, for tests and ops.
  const data::ShardPlan& plan() const { return plan_; }

 private:
  void finish_round();

  ServerConfig config_;
  std::unique_ptr<truth::TruthDiscovery> method_;
  net::Transport* network_;

  std::uint64_t current_round_ = 0;
  bool round_open_ = false;
  std::vector<net::NodeId> participants_;
  ParticipantIndex index_;
  data::ShardPlan plan_;
  /// Per-shard ingestion state for the open round (see the file comment).
  IngestPipeline pipeline_;
  /// Rows already submitted this round: the early-close trigger.
  std::vector<char> submitted_rows_;
  std::size_t producer_distinct_ = 0;
  std::size_t unroutable_rejected_ = 0; ///< unknown user / undecodable header
  WarmState warm_;
  std::vector<RoundOutcome> outcomes_;
};

}  // namespace dptd::crowd
