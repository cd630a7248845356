// Pipelined report ingestion: the network thread only *routes* — an O(1)
// header peek resolves the owning shard — and hands the raw encoded report to
// that shard's ShardIngestor, which runs the expensive half of ingestion
// (full decode, dedup, claim sanitization, row append, counting).
//
// Topology: K shards (data::ShardPlan) are split contiguously across
// W = min(ingest workers, K) worker threads. Each worker has ONE bounded ring
// queue fed by the single producer and exclusively owns the ingestors of its
// shard range, so the hot path needs no locks around builder state and no
// shared atomics: per-shard ingestion statistics are plain worker-local
// counters, read after the drain barrier at round close. With zero workers
// the pipeline runs inline: no threads, submit() ingests on the caller's
// thread, and drain() is a no-op.
//
// Determinism by construction: each queue is FIFO from a single producer,
// and a shard's reports all travel through the one queue of its owning
// worker, so per-shard ingestion order — and therefore dedup outcomes and
// the finalized sub-matrix — is the submission order, exactly as in inline
// mode, for every worker count.
//
// Backpressure: queues are bounded; when one fills, the producer blocks in
// submit() until the worker catches up, so a slow shard throttles intake
// instead of growing memory without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "crowd/shard_ingestor.h"
#include "data/sharding.h"

namespace dptd::crowd {

struct IngestPipelineConfig {
  /// Worker threads; clamped to the round's shard count. 0 runs inline on
  /// the submitting thread.
  std::size_t num_workers = 1;
  /// Ring slots per worker queue — the backpressure bound.
  std::size_t queue_capacity = 4096;
  /// Max reports a worker dequeues per lock acquisition.
  std::size_t max_batch = 128;
};

class IngestPipeline {
 public:
  explicit IngestPipeline(IngestPipelineConfig config);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Arms the pipeline for a round: shard ingestors shaped to `plan`,
  /// counters zeroed, workers started (re-used across rounds when the
  /// shard/worker topology is unchanged — the builder storage is recycled
  /// via reshape()).
  /// The previous round, if any, must have been drained (finalize_shards or
  /// drain); this is the caller's round-close barrier. Categorical rounds
  /// additionally pass the round number and the label policy: label-range
  /// validation and the policy's optional k-RR sampling run on the worker
  /// that owns the report's shard (never on the producer/network thread),
  /// seeded by (round, global row) so the bits match for every worker
  /// count.
  void begin_round(const data::ShardPlan& plan, std::size_t num_objects,
                   std::uint64_t round = 0,
                   const LabelIngestPolicy& labels = {});

  /// Producer side (one thread): enqueues the encoded report `payload` for
  /// the matrix row `row` (the caller has already peeked the header and
  /// resolved row + round, and verified the message kind matches the round —
  /// `is_label` selects the LabelReport decode path). Blocks when the owning
  /// worker's queue is full; in inline mode the report is ingested before
  /// submit returns.
  void submit(std::size_t row, std::vector<std::uint8_t> payload,
              bool is_label = false);
  /// Zero-copy variant: `payload` must outlive the next drain() (e.g. a
  /// pre-encoded benchmark corpus).
  void submit_view(std::size_t row, std::span<const std::uint8_t> payload,
                   bool is_label = false);

  /// Blocks until every submitted report has been fully ingested (the round
  /// close barrier). After drain() returns, counters and builders are exact
  /// and safe to read from the calling thread. A no-op in inline mode.
  void drain();

  /// Distinct users ingested so far, summed across shards. Monotone and
  /// cheap (one relaxed load per worker); exact only after drain().
  std::size_t distinct_reporters() const;

  /// Per-shard accounting for the round. Call only after drain().
  std::vector<ShardIngestStats> shard_stats() const;

  /// Drains, finalizes the per-shard ingestors into sub-matrices (resetting
  /// them), and returns them in shard order — ready for
  /// data::ShardedMatrix::from_shards.
  std::vector<data::ObservationMatrix> finalize_shards();

  const data::ShardPlan& plan() const { return plan_; }
  std::size_t num_workers() const { return workers_.size(); }
  std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Item {
    std::size_t shard = 0;
    std::size_t local_user = 0;
    bool is_label = false;  ///< decode as LabelReport instead of Report
    /// The encoded report: `view` points into `owned` or into caller-owned
    /// memory (the zero-copy path). Moving an Item keeps `view` valid —
    /// vector moves never relocate the heap buffer.
    std::span<const std::uint8_t> view;
    std::vector<std::uint8_t> owned;
  };

  /// One worker thread: a bounded queue, its thread, and the padded counter
  /// mirrors the coordinator polls (sole writer: the worker itself).
  struct Worker {
    explicit Worker(std::size_t queue_capacity) : queue(queue_capacity) {}

    BoundedMpscQueue<Item> queue;
    std::thread thread;
    std::size_t shard_begin = 0;
    std::size_t shard_end = 0;
    std::size_t pushed = 0;  ///< producer-thread-local
    alignas(64) std::atomic<std::size_t> processed{0};
    alignas(64) std::atomic<std::size_t> distinct{0};
  };

  void enqueue(std::size_t row, Item item);
  void worker_loop(Worker& worker);
  void stop_workers();

  IngestPipelineConfig config_;
  data::ShardPlan plan_;
  /// One per shard; written only by the owning worker (or the submitting
  /// thread in inline mode) while the round is open, read after drain().
  std::vector<ShardIngestor> shards_;
  std::vector<std::size_t> worker_of_shard_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Drain rendezvous: the coordinator arms `draining_`, workers notify
  /// after each batch while it is set. seq_cst on both sides closes the
  /// lost-wakeup window (see drain()).
  std::atomic<bool> draining_{false};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace dptd::crowd
