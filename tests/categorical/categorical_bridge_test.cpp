// The categorical bridge's sanitize-drop rule: a claim whose value encodes
// no label id in [0, num_labels) — non-integral, negative, the alphabet size
// itself, or far beyond the bridge's alphabet cap — is dropped before voting,
// wherever it sits in a canonical user block. A matrix salted with such
// claims must vote bitwise like the same matrix with those cells removed,
// for every shard count, cold and warm-started, on a multi-threaded pool
// (the threaded score fold over a shared column index).
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/sharding.h"
#include "truth/categorical.h"

namespace dptd::truth {
namespace {

constexpr std::size_t kBlock = 8;
// Above for_each_range's serial cutoff (512), so the score fold runs on the
// pool at every K and the disagreement pass at K <= 2.
constexpr std::size_t kUsers = 1024;
constexpr std::size_t kObjects = 520;
constexpr std::size_t kLabels = 5;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kInvalidBlock = 3;   // users [24, 32): invalid only
constexpr std::size_t kInvalidUser = 45;   // a lone all-invalid user
constexpr std::size_t kInvalidObject = 7;  // claimed with invalid values only
constexpr double kSalts[] = {0.5, -1.0, static_cast<double>(kLabels),
                             2097152.0 /* 2^21 */};

struct BridgeInput {
  data::ObservationMatrix clean;
  data::ObservationMatrix salted;  ///< clean plus invalid cells
};

BridgeInput make_input() {
  std::mt19937_64 rng(0x5a17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick_label(0, kLabels - 1);
  std::uniform_int_distribution<std::size_t> pick_salt(0,
                                                      std::size(kSalts) - 1);
  std::vector<std::size_t> truth(kObjects);
  for (std::size_t& t : truth) t = pick_label(rng);

  BridgeInput in{data::ObservationMatrix(kUsers, kObjects),
                 data::ObservationMatrix(kUsers, kObjects)};
  for (std::size_t s = 0; s < kUsers; ++s) {
    // Heterogeneous quality, so weighted voting iterates.
    const double error = 0.2 + 0.75 * unit(rng);
    const bool all_invalid = s / kBlock == kInvalidBlock || s == kInvalidUser;
    for (std::size_t n = 0; n < kObjects; ++n) {
      const double draw = unit(rng);
      if (draw < 0.9) continue;  // missing cell: sparse coverage
      if (all_invalid || n == kInvalidObject || draw < 0.93) {
        in.salted.set(s, n, kSalts[pick_salt(rng)]);
        continue;
      }
      std::size_t claim = truth[n];
      if (unit(rng) < error) {
        claim = (claim + 1 + pick_label(rng) % (kLabels - 1)) % kLabels;
      }
      in.clean.set(s, n, static_cast<double>(claim));
      in.salted.set(s, n, static_cast<double>(claim));
    }
  }
  return in;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_bitwise_equal(const Result& a, const Result& b,
                          const std::string& what) {
  EXPECT_EQ(bits(a.truths), bits(b.truths)) << what;
  EXPECT_EQ(bits(a.weights), bits(b.weights)) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
}

TEST(CategoricalBridge, InputIsSaltedWithEveryInvalidKind) {
  const BridgeInput in = make_input();
  ASSERT_GT(in.salted.observation_count(), in.clean.observation_count());
  for (double salt : kSalts) {
    std::size_t count = 0;
    in.salted.for_each([&](std::size_t, std::size_t, double v) {
      if (v == salt) ++count;
    });
    EXPECT_GT(count, 0u) << "salt " << salt;
  }
  for (std::size_t s = kInvalidBlock * kBlock; s < (kInvalidBlock + 1) * kBlock;
       ++s) {
    EXPECT_GT(in.salted.user_observation_count(s), 0u) << "user " << s;
    EXPECT_EQ(in.clean.user_observation_count(s), 0u) << "user " << s;
  }
  EXPECT_GT(in.salted.user_observation_count(kInvalidUser), 0u);
  EXPECT_EQ(in.clean.user_observation_count(kInvalidUser), 0u);
  EXPECT_GT(in.salted.object_observation_count(kInvalidObject), 0u);
  EXPECT_EQ(in.clean.object_observation_count(kInvalidObject), 0u);
}

TEST(CategoricalBridge, MajorityVoteDropsNonLabelClaimsBitwise) {
  const BridgeInput in = make_input();
  const MajorityVote method({.num_labels = kLabels, .num_threads = kThreads});
  const Result reference =
      method.run_sharded(data::ShardedMatrix::single(in.clean, kBlock));
  for (const std::size_t k : {1u, 2u, 4u}) {
    const std::string what = "K=" + std::to_string(k);
    const Result clean = method.run_sharded(
        data::ShardedMatrix::partition(in.clean, k, kBlock));
    const Result salted = method.run_sharded(
        data::ShardedMatrix::partition(in.salted, k, kBlock));
    expect_bitwise_equal(clean, salted, "salted vs clean " + what);
    expect_bitwise_equal(reference, salted, "salted vs K=1 clean " + what);
  }
}

TEST(CategoricalBridge, WeightedVoteDropsNonLabelClaimsBitwiseColdAndWarm) {
  const BridgeInput in = make_input();
  WeightedVoteConfig config;
  config.num_labels = kLabels;
  config.num_threads = kThreads;
  const WeightedVote method(config);
  const Result cold_ref =
      method.run_sharded(data::ShardedMatrix::single(in.clean, kBlock));
  ASSERT_GT(cold_ref.iterations, 1u);

  const WarmStart warm_weights{.truths = {}, .weights = cold_ref.weights};
  const WarmStart warm_truths{.truths = cold_ref.truths, .weights = {}};
  for (const std::size_t k : {1u, 2u, 4u}) {
    const auto clean = data::ShardedMatrix::partition(in.clean, k, kBlock);
    const auto salted = data::ShardedMatrix::partition(in.salted, k, kBlock);
    for (const auto& [name, warm] :
         {std::pair<std::string, WarmStart>{"cold", {}},
          {"warm-weights", warm_weights},
          {"warm-truths", warm_truths}}) {
      const std::string what = name + " K=" + std::to_string(k);
      const Result from_clean = method.run_sharded(clean, warm);
      const Result from_salted = method.run_sharded(salted, warm);
      expect_bitwise_equal(from_clean, from_salted, "salted vs clean " + what);
      expect_bitwise_equal(
          method.run_sharded(data::ShardedMatrix::single(in.clean, kBlock),
                             warm),
          from_salted, "salted vs K=1 clean " + what);
    }
  }
}

}  // namespace
}  // namespace dptd::truth
