// The server's one trust boundary: ingestion of a single perturbed report
// into the shard that owns its user. Every ingest path — ShardedServer (via
// IngestPipeline, inline or on worker threads) and the distributed
// dist::ShardNode — resolves a report's round, kind and matrix row, then hands
// the encoded payload to a ShardIngestor, which decodes, dedups, sanitizes,
// appends and counts. Keeping this step in one place is what makes every
// ingestion mode land identical matrices and identical counters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "crowd/protocol.h"
#include "data/builder.h"

namespace dptd::crowd {

/// Categorical-round ingestion policy, applied by every ShardIngestor so
/// every ingestion mode applies identical mechanisms and lands identical
/// bits.
struct LabelIngestPolicy {
  /// Label alphabet size of the round; 0 (or 1) means a continuous campaign
  /// and disables label ingestion entirely.
  std::size_t num_labels = 0;
  /// Server-side empirical k-RR sampling applied per ingested claim (the
  /// pipeline-side mechanism: it runs on the ingest worker that owns the
  /// user's shard, never on the network thread). 1.0 disables it — clients
  /// that already perturbed locally are the normal LDP deployment.
  double rr_keep_probability = 1.0;
  /// Root seed of the sampling stream; each report's draws come from
  /// Rng(derive_seed(rr_seed, round, global_row)), so results are identical
  /// for every worker count and every shard count.
  std::uint64_t rr_seed = 0x6c61626cULL;  // "labl"

  bool enabled() const { return num_labels >= 2; }
};

/// Per-shard ingestion accounting for one round, kept by that shard's
/// ShardIngestor. RoundOutcome carries one entry per ingestion shard (one
/// entry at K=1), so the outcome schema is uniform across the scaling knob.
struct ShardIngestStats {
  std::size_t reports_received = 0;   ///< distinct users landed on this shard
  std::size_t duplicates_ignored = 0; ///< re-sends routed to this shard
  std::size_t malformed_reports = 0;  ///< reports needing claim sanitization
  std::size_t rejected_reports = 0;   ///< undecodable body, or reject()ed
  std::size_t invalid_labels = 0;     ///< label claims >= num_labels, dropped
};

/// Sanitizes a decoded report's claim list exactly like the batch assembler
/// (out-of-range objects and non-finite values are dropped, mismatched array
/// tails truncated) and ingests the valid subset into `builder` under
/// `local_user`. Returns true when anything had to be dropped (a malformed
/// report); the clean path ingests the decoded arrays directly, no copy. The
/// caller must have dedup-checked `local_user` already.
bool ingest_report_claims(data::ObservationMatrixBuilder& builder,
                          std::size_t local_user, const Report& report,
                          std::size_t num_objects);

/// What ingest_label_claims had to drop or rewrite.
struct LabelIngestOutcome {
  bool malformed = false;          ///< array mismatch / out-of-range objects
  std::size_t invalid_labels = 0;  ///< claims with label >= num_labels
};

/// The categorical twin of ingest_report_claims: validates every claim's
/// object range AND label range (out-of-alphabet labels are dropped and
/// counted, never aborting the report), optionally applies the policy's
/// server-side k-RR sampling (seeded by (round, global_user), so the result
/// is identical on every ingestion mode), and ingests the surviving claims
/// as exact label-id doubles under `local_user`. The caller must have
/// dedup-checked `local_user` already.
LabelIngestOutcome ingest_label_claims(data::ObservationMatrixBuilder& builder,
                                       std::size_t local_user,
                                       std::size_t global_user,
                                       const LabelReport& report,
                                       std::size_t num_objects,
                                       const LabelIngestPolicy& policy,
                                       std::uint64_t round);

/// One shard's ingest state: its rows' ObservationMatrixBuilder (reused
/// across rounds via reshape) and its ShardIngestStats. Not thread-safe: a
/// shard is ingested by exactly one thread at a time. Cache-line aligned so
/// shards owned by different pipeline workers never share a line.
class alignas(64) ShardIngestor {
 public:
  /// Arms the shard for a round of `num_users` local rows whose global rows
  /// start at `user_base`; zeroes the counters. `labels` is the round's
  /// categorical policy (disabled for a continuous round).
  void begin_round(std::size_t num_users, std::size_t num_objects,
                   std::size_t user_base, std::uint64_t round,
                   const LabelIngestPolicy& labels);

  /// Ingests one encoded report for local row `local_user`. The caller has
  /// resolved round, kind and row from the header. The body is decoded
  /// before the dedup check, so a corrupt re-send counts as rejected, not
  /// duplicate. Returns true when the report counted as a new distinct
  /// reporter.
  bool ingest(std::size_t local_user, std::span<const std::uint8_t> payload,
              bool is_label);

  /// Counts a report the caller turned away before it reached ingest().
  void reject() { ++stats_.rejected_reports; }

  /// Moves the ingested rows out as this round's sub-matrix (the builder
  /// stays armed, empty, with the same shape).
  data::ObservationMatrix finalize() { return builder_->finalize(); }

  /// Drops the builder and the counters (a crashed shard's volatile state).
  void reset();

  /// True between begin_round() and reset().
  bool armed() const { return builder_.has_value(); }
  const ShardIngestStats& stats() const { return stats_; }

 private:
  std::optional<data::ObservationMatrixBuilder> builder_;
  ShardIngestStats stats_;
  std::size_t user_base_ = 0;
  std::uint64_t round_ = 0;
  LabelIngestPolicy labels_;
};

}  // namespace dptd::crowd
