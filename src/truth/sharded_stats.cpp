#include "truth/sharded_stats.h"

#include <algorithm>

#include "common/check.h"

namespace dptd::truth {

namespace {

void add_moment(RunningStats& seg, std::size_t, std::size_t, double value) {
  seg.add(value);
}

/// Segment boundary of the moments fold: merge the segment into out[n].
struct MergeSegments {
  RunningStats* out;
  void column(std::size_t, std::size_t, std::size_t) const {}
  void segment(std::size_t n, const RunningStats& seg) const {
    out[n].merge(seg);
  }
};

}  // namespace

void fold_object_moments(const data::ShardedMatrix& m, ThreadPool* pool,
                         std::span<RunningStats> out) {
  DPTD_REQUIRE(out.size() == m.num_objects(),
               "fold_object_moments: output size != num objects");
  detail::fold_block_segments<RunningStats>(m, pool, add_moment,
                                            MergeSegments{out.data()});
}

void fold_object_moments_partials(const data::ShardedMatrix& m,
                                  MomentPartials& out) {
  detail::record_block_segments(m, add_moment, out);
}

void apply_object_moments(const MomentPartials& partials,
                          std::span<RunningStats> out) {
  DPTD_REQUIRE(out.size() == partials.num_objects,
               "apply_object_moments: output size != num objects");
  detail::replay_block_segments(partials, MergeSegments{out.data()});
}

GatheredColumns gather_object_values(const data::ShardedMatrix& m,
                                     ThreadPool* pool) {
  const std::size_t N = m.num_objects();
  GatheredColumns out;
  if (m.num_shards() == 1) {
    // The lone shard's CSC cache already holds every column in user order;
    // alias it instead of copying nnz values.
    m.shard(0).ensure_object_index();
    out.aliased = &m.shard(0);
    return out;
  }
  out.offsets.assign(N + 1, 0);
  for (std::size_t n = 0; n < N; ++n) {
    out.offsets[n + 1] = out.offsets[n] + m.object_observation_count(n);
  }
  out.values.resize(out.offsets[N]);
  // Shards appended in ascending order reproduce the flat matrix's columns:
  // shard user ranges are contiguous and ascending, and each shard's column
  // fragment is already sorted by (local, hence global) user id.
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    shard.ensure_object_index();
    for_each_range(pool, N, [&](std::size_t begin, std::size_t end) {
      for (std::size_t n = begin; n < end; ++n) {
        const auto col = shard.object_entries(n);
        for (std::size_t i = 0; i < col.size(); ++i) {
          out.values[cursor[n] + i] = col.values[i];
        }
        cursor[n] += col.size();
      }
    });
  }
  return out;
}

namespace {

/// The one block-sum loop: `segment(sum)` per block of `block_size` users,
/// in ascending order, each sum flat in user order.
template <typename Segment>
void for_each_block_sum(std::span<const double> per_user,
                        std::size_t block_size, const Segment& segment) {
  DPTD_REQUIRE(block_size > 0, "block_chain_sum: block_size must be positive");
  for (std::size_t begin = 0; begin < per_user.size(); begin += block_size) {
    const std::size_t end = std::min(begin + block_size, per_user.size());
    double seg = 0.0;
    for (std::size_t i = begin; i < end; ++i) seg += per_user[i];
    segment(seg);
  }
}

}  // namespace

double block_chain_sum(std::span<const double> per_user,
                       std::size_t block_size, double init) {
  double acc = init;
  for_each_block_sum(per_user, block_size, [&](double seg) { acc += seg; });
  return acc;
}

void block_sums(std::span<const double> per_user, std::size_t block_size,
                std::vector<double>& out) {
  out.clear();
  for_each_block_sum(per_user, block_size,
                     [&](double seg) { out.push_back(seg); });
}

double chain_block_sums(std::span<const double> sums, double init) {
  for (double seg : sums) init += seg;
  return init;
}

}  // namespace dptd::truth
