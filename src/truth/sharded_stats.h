// Mergeable sufficient statistics for sharded truth discovery.
//
// Every per-object quantity the iterative methods need (weighted sums,
// claim counts, claim moments, Gaussian-posterior precisions) is expressed as
// a fold over *canonical user blocks* (data::ShardPlan::block_size users per
// block): claims are summed flat in user order within a block, and block
// partials are chained in ascending block order —
//
//   out[n] = ((init[n] + block_0[n]) + block_1[n]) + ...
//
// Shards are reduced in fixed (ascending) shard order, and shard boundaries
// are block-aligned, so the chain — and therefore every bit of the result —
// is identical for any shard count, mirroring the 1-vs-N-thread determinism
// guarantee of the flat kernels. Per-user quantities (losses, residuals,
// qualities) touch only the owning shard's row and need no merge.
//
// One loop (detail::fold_block_segments) walks the columns and cuts them
// into (object, block) segments; what happens at a segment boundary is the
// caller's:
//   - the fused fold (fold_object_stats, fold_object_moments) adds each
//     segment straight into the accumulator — the in-process run_sharded
//     path;
//   - the split fold records the segments instead (*_partials), and a later
//     apply (apply_object_stats, apply_object_moments) replays them onto an
//     accumulator. Replay makes the same segment additions in the same
//     per-object order as the fused fold, so partials-then-apply is bitwise
//     the fused fold. A distributed shard computes its partials in parallel
//     with every other shard (the O(claims) pass) and only the
//     O(objects x blocks) apply stays on the coordinator's serial chain.
// block_chain_sum splits the same way: block_sums, then chain_block_sums.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/statistics.h"
#include "common/thread_pool.h"
#include "data/sharding.h"

namespace dptd::truth {

/// A recorded canonical fold: for every (shard, object) run
/// r = shard * num_objects + object, the run's claim count and its
/// (object, block) segments in ascending block order — exactly what the
/// fused fold adds into its accumulator. clear() keeps every vector's
/// capacity, so a node that recomputes its partials each iteration allocates
/// only on the first.
template <typename Seg>
struct SegmentPartials {
  std::size_t num_objects = 0;
  std::vector<std::size_t> claims;   ///< per run
  std::vector<std::size_t> offsets;  ///< run r owns [offsets[r], offsets[r+1])
  std::vector<Seg> segments;

  bool empty() const { return offsets.empty(); }
  void clear() {
    num_objects = 0;
    claims.clear();
    offsets.clear();
    segments.clear();
  }
};

template <std::size_t V>
using StatsPartials = SegmentPartials<std::array<double, V>>;
using MomentPartials = SegmentPartials<RunningStats>;

namespace detail {

/// The one block-segment loop. For every shard of `m` in ascending order and
/// every object (parallel over objects), calls `sink.column(shard, object,
/// claims)`; then, for a non-empty column, accumulates its claims flat in
/// user order into a value-initialized Seg with `add(seg, global_user,
/// object, value)` and hands each finished (object, block) segment to
/// `sink.segment(object, seg)` in ascending block order.
template <typename Seg, typename Add, typename Sink>
void fold_block_segments(const data::ShardedMatrix& m, ThreadPool* pool,
                         const Add& add, const Sink& sink) {
  const std::size_t block_size = m.plan().block_size;
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    shard.ensure_object_index();
    for_each_range(pool, m.num_objects(), [&](std::size_t begin,
                                              std::size_t end) {
      for (std::size_t n = begin; n < end; ++n) {
        const auto col = shard.object_entries(n);
        sink.column(s, n, col.size());
        if (col.empty()) continue;
        Seg seg{};
        // Columns are user-ascending, so a segment ends exactly when the
        // local user id reaches the current block's end — one comparison per
        // claim, one division per segment.
        std::size_t block_end =
            ((base + col.users[0]) / block_size + 1) * block_size - base;
        for (std::size_t i = 0; i < col.size(); ++i) {
          const std::size_t user = col.users[i];  // shard-local id
          if (user >= block_end) {
            sink.segment(n, seg);
            seg = Seg{};
            block_end = ((base + user) / block_size + 1) * block_size - base;
          }
          add(seg, base + user, n, col.values[i]);
        }
        sink.segment(n, seg);
      }
    });
  }
}

/// Sink that records the segments into `out` (serial: runs arrive in order).
template <typename Seg>
struct RecordSegments {
  SegmentPartials<Seg>* out;
  void column(std::size_t, std::size_t, std::size_t claims) const {
    out->claims.push_back(claims);
    out->offsets.push_back(out->segments.size());
  }
  void segment(std::size_t, const Seg& seg) const {
    out->segments.push_back(seg);
  }
};

template <typename Seg, typename Add>
void record_block_segments(const data::ShardedMatrix& m, const Add& add,
                           SegmentPartials<Seg>& out) {
  out.clear();
  out.num_objects = m.num_objects();
  fold_block_segments<Seg>(m, nullptr, add, RecordSegments<Seg>{&out});
  out.offsets.push_back(out.segments.size());
}

/// Replays recorded partials onto `sink` with the exact call sequence the
/// fused fold makes per object.
template <typename Seg, typename Sink>
void replay_block_segments(const SegmentPartials<Seg>& p, const Sink& sink) {
  for (std::size_t r = 0; r < p.claims.size(); ++r) {
    const std::size_t n = r % p.num_objects;
    sink.column(r / p.num_objects, n, p.claims[r]);
    for (std::size_t i = p.offsets[r]; i < p.offsets[r + 1]; ++i) {
      sink.segment(n, p.segments[i]);
    }
  }
}

/// Segment boundary of the V-statistic folds: ADD the segment into out[v].
template <std::size_t V>
struct AddSegments {
  std::array<double*, V> out;
  std::size_t* counts;
  void column(std::size_t, std::size_t n, std::size_t claims) const {
    if (counts != nullptr) counts[n] += claims;
  }
  void segment(std::size_t n, const std::array<double, V>& seg) const {
    for (std::size_t v = 0; v < V; ++v) out[v][n] += seg[v];
  }
};

/// Per-claim step of the V-statistic folds: `emit` fills the claim's V
/// contributions, which are summed flat into the segment.
template <std::size_t V, typename Emit>
auto stats_adder(const Emit& emit) {
  return [&emit](std::array<double, V>& seg, std::size_t user, std::size_t n,
                 double value) {
    std::array<double, V> contrib{};
    emit(user, n, value, contrib);
    for (std::size_t v = 0; v < V; ++v) seg[v] += contrib[v];
  };
}

}  // namespace detail

/// Folds V per-claim contributions into per-object accumulators in canonical
/// block order. `emit(global_user, object, value, contrib)` fills the V
/// contributions of one claim; they are ADDED into `out[v][object]` (callers
/// pre-initialize with zeros or prior terms). If `counts` is non-null, the
/// per-object claim count is added into it. Deterministic and bitwise
/// identical for any shard count and any `pool` size.
template <std::size_t V, typename Emit>
void fold_object_stats(const data::ShardedMatrix& m, ThreadPool* pool,
                       const Emit& emit, const std::array<double*, V>& out,
                       std::size_t* counts = nullptr) {
  detail::fold_block_segments<std::array<double, V>>(
      m, pool, detail::stats_adder<V>(emit),
      detail::AddSegments<V>{out, counts});
}

/// The O(claims) half of fold_object_stats: records `m`'s segments into
/// `out` (serial; capacity kept) instead of adding them anywhere.
template <std::size_t V, typename Emit>
void fold_object_stats_partials(const data::ShardedMatrix& m,
                                const Emit& emit, StatsPartials<V>& out) {
  detail::record_block_segments(m, detail::stats_adder<V>(emit), out);
}

/// The O(objects x blocks) half: ADDS recorded partials into `out` (and the
/// claim counts into `counts` when non-null). Bitwise equal to the fused
/// fold_object_stats over the same matrix onto the same accumulator.
template <std::size_t V>
void apply_object_stats(const StatsPartials<V>& partials,
                        const std::array<double*, V>& out,
                        std::size_t* counts = nullptr) {
  detail::replay_block_segments(partials,
                                detail::AddSegments<V>{out, counts});
}

/// Per-object claim moments (count/mean/variance) as a canonical block fold:
/// Welford accumulation flat within a block, RunningStats::merge across
/// blocks in ascending order. `out` must hold num_objects accumulators
/// (default-constructed, or the chain state of preceding shards). Same
/// determinism contract as fold_object_stats.
void fold_object_moments(const data::ShardedMatrix& m, ThreadPool* pool,
                         std::span<RunningStats> out);
/// The split form: record the per-block Welford segments, then merge them
/// onto `out` — bitwise equal to fold_object_moments.
void fold_object_moments_partials(const data::ShardedMatrix& m,
                                  MomentPartials& out);
void apply_object_moments(const MomentPartials& partials,
                          std::span<RunningStats> out);

/// Per-object claim values gathered across shards in global user order (the
/// exact column a single flat matrix would expose). Loop-invariant: used only
/// for initialization statistics that need whole columns (medians). In the
/// single-shard case the columns alias the shard's own CSC cache — no copy;
/// the view must then not outlive the matrix (callers use it within one run).
struct GatheredColumns {
  std::vector<std::size_t> offsets;  ///< size num_objects + 1 (materialized)
  std::vector<double> values;        ///< size nnz, column-major (materialized)
  const data::ObservationMatrix* aliased = nullptr;  ///< single-shard zero-copy

  std::span<const double> column(std::size_t object) const {
    if (aliased != nullptr) return aliased->object_entries(object).values;
    return std::span<const double>(values).subspan(
        offsets[object], offsets[object + 1] - offsets[object]);
  }
};
GatheredColumns gather_object_values(const data::ShardedMatrix& m,
                                     ThreadPool* pool);

/// Runs fn(global_user, row) for every user. Purely per-user state: nothing
/// to merge, so execution order is free. Iterates shard by shard — rows are
/// contiguous local ids with one base offset, no per-user routing math — and
/// parallelizes over each shard's users.
template <typename Fn>
void for_each_user_row(const data::ShardedMatrix& m, ThreadPool* pool,
                       const Fn& fn) {
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    for_each_range(pool, shard.num_users(),
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t local = begin; local < end; ++local) {
                       fn(base + local, shard.user_entries(local));
                     }
                   });
  }
}

/// Canonical block-chained sum of a per-user vector (e.g. CRH's total loss):
/// flat within each block of `block_size` users, block partials chained in
/// ascending order, starting from `init`. Independent of how users are
/// sharded: the blocks of block-aligned shards, chained in ascending shard
/// order, are the global blocks.
double block_chain_sum(std::span<const double> per_user,
                       std::size_t block_size, double init = 0.0);
/// The split form: `out` receives the per-block sums block_chain_sum chains
/// (capacity kept), and chain_block_sums adds them onto `init` in order —
/// chain_block_sums(block_sums(x), init) == block_chain_sum(x, b, init) bit
/// for bit. The distributed coordinator chains every shard's block sums, in
/// ascending shard order, into the fleet-wide total.
void block_sums(std::span<const double> per_user, std::size_t block_size,
                std::vector<double>& out);
double chain_block_sums(std::span<const double> sums, double init = 0.0);

}  // namespace dptd::truth
