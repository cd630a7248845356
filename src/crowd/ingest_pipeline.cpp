#include "crowd/ingest_pipeline.h"

#include "common/check.h"

namespace dptd::crowd {

IngestPipeline::IngestPipeline(IngestPipelineConfig config) : config_(config) {
  DPTD_REQUIRE(config_.queue_capacity > 0,
               "IngestPipeline: queue_capacity must be positive");
  DPTD_REQUIRE(config_.max_batch > 0,
               "IngestPipeline: max_batch must be positive");
}

IngestPipeline::~IngestPipeline() { stop_workers(); }

void IngestPipeline::begin_round(const data::ShardPlan& plan,
                                 std::size_t num_objects, std::uint64_t round,
                                 const LabelIngestPolicy& labels) {
  DPTD_REQUIRE(num_objects > 0, "IngestPipeline: num_objects must be positive");
  const std::size_t num_shards = plan.num_shards;
  const std::size_t num_workers =
      config_.num_workers < num_shards ? config_.num_workers : num_shards;

  // Workers survive rounds when the topology is stable; a shard- or
  // worker-count change tears them down and rebuilds. All shard/counter
  // state below is written while every worker is quiescent (blocked on an
  // empty queue after the previous round's drain); the queue mutex on the
  // first push of the new round publishes it to the worker.
  if (workers_.size() != num_workers || shards_.size() != num_shards) {
    stop_workers();
    shards_.clear();
    shards_.resize(num_shards);
    workers_.clear();
    workers_.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w) {
      workers_.push_back(std::make_unique<Worker>(config_.queue_capacity));
    }
  }

  plan_ = plan;
  worker_of_shard_.resize(num_shards);
  for (std::size_t w = 0; w < num_workers; ++w) {
    Worker& worker = *workers_[w];
    worker.shard_begin = w * num_shards / num_workers;
    worker.shard_end = (w + 1) * num_shards / num_workers;
    for (std::size_t s = worker.shard_begin; s < worker.shard_end; ++s) {
      worker_of_shard_[s] = w;
    }
    worker.pushed = 0;
    worker.processed.store(0, std::memory_order_relaxed);
    worker.distinct.store(0, std::memory_order_relaxed);
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_[s].begin_round(plan_.shard_num_users(s), num_objects,
                           plan_.user_begin(s), round, labels);
  }
  for (std::size_t w = 0; w < num_workers; ++w) {
    if (!workers_[w]->thread.joinable()) {
      workers_[w]->thread =
          std::thread([this, w] { worker_loop(*workers_[w]); });
    }
  }
}

void IngestPipeline::submit(std::size_t row, std::vector<std::uint8_t> payload,
                            bool is_label) {
  Item item;
  item.is_label = is_label;
  item.owned = std::move(payload);
  item.view = item.owned;
  enqueue(row, std::move(item));
}

void IngestPipeline::submit_view(std::size_t row,
                                 std::span<const std::uint8_t> payload,
                                 bool is_label) {
  Item item;
  item.is_label = is_label;
  item.view = payload;
  enqueue(row, std::move(item));
}

void IngestPipeline::enqueue(std::size_t row, Item item) {
  item.shard = plan_.shard_of_user(row);
  item.local_user = row - plan_.user_begin(item.shard);
  if (workers_.empty()) {
    shards_[item.shard].ingest(item.local_user, item.view, item.is_label);
    return;
  }
  Worker& worker = *workers_[worker_of_shard_[item.shard]];
  // push() blocks on backpressure; it can refuse only when the queue was
  // closed (shutdown racing a submit — a caller bug). Failing loudly here
  // keeps pushed == processed reachable, so drain() can never hang on a
  // silently dropped item.
  DPTD_CHECK(worker.queue.push(std::move(item)),
             "IngestPipeline: submit after shutdown");
  ++worker.pushed;
}

void IngestPipeline::drain() {
  if (workers_.empty()) return;  // inline mode: nothing is ever in flight
  // seq_cst choreography against the worker's post-batch sequence
  // (processed.store; draining_.load): if the worker's final store is not
  // yet visible to the predicate below, the worker's subsequent draining_
  // load is ordered after our store here and must see true, so it takes the
  // mutex and notifies — no lost wakeup.
  draining_.store(true, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [&] {
      for (const auto& worker : workers_) {
        if (worker->processed.load(std::memory_order_seq_cst) !=
            worker->pushed) {
          return false;
        }
      }
      return true;
    });
  }
  draining_.store(false, std::memory_order_seq_cst);
}

std::size_t IngestPipeline::distinct_reporters() const {
  std::size_t total = 0;
  if (workers_.empty()) {  // inline mode: the shard counters are exact
    for (const ShardIngestor& shard : shards_) {
      total += shard.stats().reports_received;
    }
    return total;
  }
  for (const auto& worker : workers_) {
    total += worker->distinct.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<ShardIngestStats> IngestPipeline::shard_stats() const {
  std::vector<ShardIngestStats> stats;
  stats.reserve(shards_.size());
  for (const ShardIngestor& shard : shards_) stats.push_back(shard.stats());
  return stats;
}

std::vector<data::ObservationMatrix> IngestPipeline::finalize_shards() {
  drain();
  std::vector<data::ObservationMatrix> matrices;
  matrices.reserve(shards_.size());
  for (ShardIngestor& shard : shards_) matrices.push_back(shard.finalize());
  return matrices;
}

void IngestPipeline::worker_loop(Worker& worker) {
  std::vector<Item> batch;
  batch.reserve(config_.max_batch);
  while (true) {
    batch.clear();
    const std::size_t n = worker.queue.wait_pop_batch(batch, config_.max_batch);
    if (n == 0) return;  // closed and empty: shutdown
    std::size_t distinct = 0;
    for (const Item& item : batch) {
      distinct += shards_[item.shard].ingest(item.local_user, item.view,
                                             item.is_label);
    }
    // Uncontended mirror for the coordinator's early-close poll; its own
    // cache line, written only by this worker.
    worker.distinct.store(
        worker.distinct.load(std::memory_order_relaxed) + distinct,
        std::memory_order_relaxed);
    worker.processed.store(
        worker.processed.load(std::memory_order_relaxed) + n,
        std::memory_order_seq_cst);
    if (draining_.load(std::memory_order_seq_cst)) {
      // Lock-then-notify so the coordinator is either not yet waiting (and
      // will observe the updated counter in its predicate) or is woken here.
      std::lock_guard<std::mutex> lock(drain_mu_);
      drain_cv_.notify_all();
    }
  }
}

void IngestPipeline::stop_workers() {
  for (auto& worker : workers_) worker->queue.close();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

}  // namespace dptd::crowd
