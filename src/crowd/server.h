// Building blocks of the untrusted aggregation server (crowd::ShardedServer):
// its configuration, the per-round outcome it records, the participant-roster
// index that resolves a report to its matrix row, warm-start state, and the
// round-close tail that aggregates and publishes.
//
// The server announces tasks with the lambda2 hyper-parameter, collects
// perturbed reports until a deadline, runs a truth-discovery method over
// whatever arrived, and publishes results. It never sees raw readings or
// per-user variances — only perturbed reports — matching the paper's threat
// model. Report ingestion itself lives in crowd/shard_ingestor.h.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crowd/protocol.h"
#include "crowd/shard_ingestor.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "net/transport.h"
#include "truth/interface.h"

namespace dptd::crowd {

struct ServerConfig {
  net::NodeId id = 1'000'000;  ///< out of the user-id range
  double lambda2 = 1.0;
  /// Collection window after the announcement; reports arriving later are
  /// ignored (stragglers).
  double collection_window_seconds = 30.0;
  std::size_t num_objects = 0;
  /// Seed each round's truth discovery from the previous round's converged
  /// truths/weights (honored by iterative methods; no-op for baselines and
  /// for the first round).
  bool warm_start = false;
  /// Ingestion shards (clamped to the number of canonical user blocks each
  /// round); 1 is the single-server configuration. Aggregation results are
  /// bitwise identical for every value.
  std::size_t num_shards = 1;
  /// Canonical sufficient-statistics block size of the sharded aggregation
  /// path; runs compare bitwise only at equal block sizes.
  std::size_t stats_block_size = data::kDefaultStatsBlockSize;
  /// Ingestion worker threads of the server's crowd::IngestPipeline. 0 is
  /// the pipeline's inline mode: each report is ingested on the network
  /// thread as it arrives. N >= 1 routes reports onto bounded queues drained
  /// by min(N, num_shards) workers. The finalized matrices — and hence the
  /// published truths — are bitwise identical for every value: each shard's
  /// queue is FIFO from the single network thread, so per-shard ingestion
  /// order matches the inline mode exactly.
  std::size_t ingest_threads = 0;
  /// Categorical campaign knobs; labels.enabled() switches the round to
  /// kLabelReport ingestion (kReport uploads are then rejected, and vice
  /// versa for continuous rounds).
  LabelIngestPolicy labels;
};

struct RoundOutcome {
  std::uint64_t round = 0;
  std::size_t reports_received = 0;   ///< distinct users whose report counted
  std::size_t reports_expected = 0;
  std::size_t reports_rejected = 0;   ///< dropped: unknown user / undecodable
  std::size_t duplicates_ignored = 0; ///< re-sends from already-counted users
  /// Per-shard rollup (one entry per ingestion shard); the scalar counters
  /// above are the sums across shards plus unroutable rejects.
  std::vector<ShardIngestStats> shard_stats;
  truth::Result result;
  double aggregation_seconds = 0.0;  ///< wall-clock spent in truth discovery
  bool warm_started = false;         ///< truth discovery was seeded
};

/// Maps a report's stable user/node id to its row in the round's observation
/// matrix (= its position in the participants roster). The common dense
/// roster [0, P) resolves by identity without a table; arbitrary rosters —
/// partial fleets after churn — build a hash index. Shared by ShardedServer,
/// dist::Coordinator and dist::ShardNode, so every deployment resolves rows
/// the same way.
class ParticipantIndex {
 public:
  void build(const std::vector<net::NodeId>& participants);
  /// The matrix row of `user`, or nullopt when `user` is not enrolled this
  /// round (byzantine or stale id).
  std::optional<std::size_t> row_of(net::NodeId user) const;

 private:
  std::size_t size_ = 0;
  bool identity_ = true;
  std::unordered_map<net::NodeId, std::size_t> rows_;
};

/// Previous round's converged state, the warm-start seed, together with the
/// roster its weights are indexed by. Keeping the roster is what lets
/// partial fleets warm-start: when the participant set changes
/// round-over-round, each surviving user's weight is remapped through its
/// stable node id instead of the whole seed being dropped.
struct WarmState {
  truth::Result result;
  std::vector<net::NodeId> participants;
  bool valid = false;
};

/// The weight seed for `participants` derived from `warm`: the previous
/// weights verbatim when the roster is unchanged, a stable-id remap (new
/// users start at the surviving fleet's mean weight) when it differs, empty
/// when nothing usable survives.
std::vector<double> remap_warm_weights(
    const WarmState& warm, const std::vector<net::NodeId>& participants,
    std::size_t num_users);

/// ShardedServer's round-close tail: object-coverage check over the sharded
/// matrix, warm-seed construction, the run_sharded aggregation call, the
/// ResultPublish fan-out, and the warm-state update. Returns false when
/// uncovered objects forced the round to skip aggregation.
/// dist::Coordinator mirrors its warm-seed step bit for bit.
bool aggregate_and_publish(const ServerConfig& config,
                           truth::TruthDiscovery& method,
                           net::Transport& network,
                           std::uint64_t round,
                           const std::vector<net::NodeId>& participants,
                           const data::ShardedMatrix& matrix, WarmState& warm,
                           RoundOutcome& outcome);

}  // namespace dptd::crowd
