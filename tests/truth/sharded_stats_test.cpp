// The split canonical fold: recording a matrix's (object, block) segment
// partials and applying them onto an accumulator is bitwise the fused fold —
// for every block size, shard count and accumulator prior, over the whole
// partitioned matrix (non-zero, block-aligned shard bases) and shard by shard
// over each shard's local view, exactly as a distributed shard computes them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/statistics.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/sharding.h"
#include "truth/sharded_stats.h"

namespace dptd::truth {
namespace {

constexpr std::size_t kUsers = 61;
constexpr std::size_t kObjects = 9;

/// Ragged claims: object kObjects-1 is never claimed (an empty column
/// everywhere) and object kObjects-2 only by the first 10 users (empty
/// columns on every later shard).
data::ObservationMatrix ragged_matrix(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-50.0, 50.0);
  std::bernoulli_distribution present(0.6);
  data::ObservationMatrix m(kUsers, kObjects);
  for (std::size_t s = 0; s < kUsers; ++s) {
    for (std::size_t n = 0; n + 1 < kObjects; ++n) {
      if (n == kObjects - 2 && s >= 10) continue;
      if (present(rng)) m.set(s, n, value(rng));
    }
  }
  return m;
}

std::vector<double> random_vector(std::uint64_t seed, std::size_t size) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(0.01, 3.0);
  std::vector<double> out(size);
  for (double& x : out) x = value(rng);
  return out;
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << label << " entry " << i;
  }
}

void expect_same_moments(const std::vector<RunningStats>& a,
                         const std::vector<RunningStats>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a[n].count(), b[n].count()) << label << " object " << n;
    if (a[n].count() == 0) continue;
    expect_same_bits({a[n].mean(), a[n].sum_squared_deviations(),
                      a[n].min(), a[n].max()},
                     {b[n].mean(), b[n].sum_squared_deviations(),
                      b[n].min(), b[n].max()},
                     label + " object " + std::to_string(n));
  }
}

/// The V=3 accumulator under test, pre-loaded with a non-zero prior.
struct Stats3 {
  std::vector<double> a, b, c;
  std::vector<std::size_t> counts;

  explicit Stats3(std::uint64_t seed)
      : a(random_vector(seed, kObjects)),
        b(random_vector(seed + 1, kObjects)),
        c(random_vector(seed + 2, kObjects)),
        counts(kObjects, 3) {}
  std::array<double*, 3> out() { return {a.data(), b.data(), c.data()}; }
};

void expect_same_stats(const Stats3& x, const Stats3& y,
                       const std::string& label) {
  expect_same_bits(x.a, y.a, label + " a");
  expect_same_bits(x.b, y.b, label + " b");
  expect_same_bits(x.c, y.c, label + " c");
  EXPECT_EQ(x.counts, y.counts) << label;
}

const std::size_t kBlockSizes[] = {1, 7, 4096};
// With block 7, 61 users span 9 blocks: K=9 gives every shard exactly one
// block (and block 4096 clamps every K to one single-block shard).
const std::size_t kShardCounts[] = {1, 3, 9};

TEST(SplitFold, ObjectStatsPartialsThenApplyMatchFusedFoldBitwise) {
  const data::ObservationMatrix obs = ragged_matrix(7);
  const std::vector<double> weights = random_vector(11, kUsers);
  const auto emit = [&](std::size_t user, std::size_t n, double value,
                        std::array<double, 3>& contrib) {
    contrib[0] = weights[user] * value;
    contrib[1] = weights[user] + static_cast<double>(n);
    contrib[2] = value * value;
  };
  ThreadPool pool(3);
  for (const std::size_t block : kBlockSizes) {
    for (const std::size_t k : kShardCounts) {
      const std::string label =
          "block " + std::to_string(block) + " K=" + std::to_string(k);
      const data::ShardedMatrix m =
          data::ShardedMatrix::partition(obs, k, block);

      Stats3 fused(5);
      fold_object_stats<3>(m, &pool, emit, fused.out(), fused.counts.data());

      // The whole partitioned matrix: shards past the first record their
      // runs at non-zero, block-aligned bases.
      Stats3 split(5);
      StatsPartials<3> partials;
      fold_object_stats_partials<3>(m, emit, partials);
      apply_object_stats<3>(partials, split.out(), split.counts.data());
      expect_same_stats(fused, split, label + " whole");

      // Shard by shard over local views (base 0, local user ids), applied
      // in ascending shard order — the distributed two-step close. The
      // emit sees local ids, so it reads the shard's weight slice.
      Stats3 chained(5);
      for (std::size_t s = 0; s < m.num_shards(); ++s) {
        const std::size_t base = m.user_base(s);
        const auto local_emit = [&](std::size_t user, std::size_t n,
                                    double value,
                                    std::array<double, 3>& contrib) {
          emit(base + user, n, value, contrib);
        };
        fold_object_stats_partials<3>(
            data::ShardedMatrix::single(m.shard(s), block), local_emit,
            partials);
        apply_object_stats<3>(partials, chained.out(),
                              chained.counts.data());
      }
      expect_same_stats(fused, chained, label + " per shard");
    }
  }
}

TEST(SplitFold, RecomputedPartialsReuseTheirBuffers) {
  const data::ObservationMatrix obs = ragged_matrix(9);
  const data::ShardedMatrix m = data::ShardedMatrix::single(obs, 7);
  const auto emit = [](std::size_t, std::size_t, double value,
                       std::array<double, 2>& contrib) {
    contrib[0] = value;
    contrib[1] = 1.0;
  };
  StatsPartials<2> partials;
  fold_object_stats_partials<2>(m, emit, partials);
  const auto* segments = partials.segments.data();
  const auto* offsets = partials.offsets.data();
  const std::size_t count = partials.segments.size();
  fold_object_stats_partials<2>(m, emit, partials);
  EXPECT_EQ(partials.segments.data(), segments);
  EXPECT_EQ(partials.offsets.data(), offsets);
  EXPECT_EQ(partials.segments.size(), count);
  partials.clear();
  EXPECT_TRUE(partials.empty());
}

TEST(SplitFold, MomentPartialsThenApplyMatchFusedFoldBitwise) {
  const data::ObservationMatrix obs = ragged_matrix(13);
  // A non-empty prior on some objects, the empty accumulator on the rest
  // (RunningStats::merge's two fast paths).
  std::vector<RunningStats> prior(kObjects);
  for (std::size_t n = 0; n < kObjects; n += 2) {
    prior[n].add(0.25 * static_cast<double>(n));
    prior[n].add(-1.5);
  }
  for (const std::size_t block : kBlockSizes) {
    for (const std::size_t k : kShardCounts) {
      const std::string label =
          "block " + std::to_string(block) + " K=" + std::to_string(k);
      const data::ShardedMatrix m =
          data::ShardedMatrix::partition(obs, k, block);

      std::vector<RunningStats> fused = prior;
      fold_object_moments(m, nullptr, fused);

      std::vector<RunningStats> split = prior;
      MomentPartials partials;
      fold_object_moments_partials(m, partials);
      apply_object_moments(partials, split);
      expect_same_moments(fused, split, label + " whole");

      std::vector<RunningStats> chained = prior;
      for (std::size_t s = 0; s < m.num_shards(); ++s) {
        fold_object_moments_partials(
            data::ShardedMatrix::single(m.shard(s), block), partials);
        apply_object_moments(partials, chained);
      }
      expect_same_moments(fused, chained, label + " per shard");
    }
  }
}

TEST(SplitFold, ChainedBlockSumsMatchBlockChainSumBitwise) {
  for (const std::size_t users : {0u, 1u, 6u, 7u, 8u, 61u, 4097u}) {
    const std::vector<double> per_user = random_vector(users + 17, users);
    for (const std::size_t block : kBlockSizes) {
      for (const double init : {0.0, 0.375}) {
        const std::string label = std::to_string(users) + " users, block " +
                                  std::to_string(block);
        const double fused = block_chain_sum(per_user, block, init);
        std::vector<double> sums;
        block_sums(per_user, block, sums);
        EXPECT_EQ(sums.size(), (users + block - 1) / block) << label;
        expect_same_bits({chain_block_sums(sums, init)}, {fused},
                         label + " whole");

        // Three block-aligned "shards" (some empty), chained in order.
        const std::size_t blocks = (users + block - 1) / block;
        const std::size_t cuts[] = {0, (blocks / 3) * block,
                                    (2 * blocks / 3) * block, users};
        double total = init;
        for (std::size_t part = 0; part < 3; ++part) {
          const std::size_t begin = std::min(cuts[part], users);
          const std::size_t end = std::min(cuts[part + 1], users);
          block_sums(std::span<const double>(per_user).subspan(
                         begin, end - begin),
                     block, sums);
          total = chain_block_sums(sums, total);
        }
        expect_same_bits({total}, {fused}, label + " per shard");
      }
    }
  }
}

}  // namespace
}  // namespace dptd::truth
