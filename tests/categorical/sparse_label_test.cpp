// Satellite suites of the sparse categorical engine (label claims stored in
// data::ObservationMatrix, whose container suites live in tests/data):
//  - the block-chained score fold equals a naive dense histogram;
//  - the voting kernels are bitwise invariant across shard counts
//    K ∈ {1,2,4,8}, cold and warm-started;
//  - k-RR debiasing edge cases: p = 1 identity, invalid keep probabilities
//    (including the empty (1/L, 1] interval at L = 1), empty objects, and
//    argmax preservation.
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "categorical/randomized_response.h"
#include "categorical/synthetic.h"
#include "categorical/voting.h"
#include "data/sharding.h"

namespace dptd::categorical {
namespace {

constexpr std::size_t kBlock = 8;

TEST(SparseLabelVoting, FoldScoresMatchesDenseHistogramExactly) {
  // Integer-valued weights make every accumulation exact, so the
  // block-chained fold and a naive dense histogram agree bitwise.
  const LabelDataset dataset = generate_categorical(
      {.num_users = 40, .num_objects = 12, .num_labels = 4,
       .lambda_err = 3.0, .missing_rate = 0.35, .seed = 9});
  const std::size_t L = dataset.num_labels;
  std::vector<double> weights(dataset.claims.num_users());
  for (std::size_t s = 0; s < weights.size(); ++s) {
    weights[s] = static_cast<double>(s % 7 + 1);
  }

  std::vector<double> naive(dataset.claims.num_objects() * L, 0.0);
  dataset.claims.for_each([&](std::size_t s, std::size_t n, Label l) {
    naive[n * L + l] += weights[s];
  });

  const auto view = data::ShardedMatrix::single(dataset.claims, kBlock);
  std::vector<double> folded(naive.size(), 0.0);
  fold_label_scores(view, L, nullptr, weights, folded);
  for (std::size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(folded[i], naive[i]) << "cell " << i;
  }
}

void expect_voting_equal(const VotingResult& a, const VotingResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.truths, b.truths) << label;
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t s = 0; s < a.weights.size(); ++s) {
    // EXPECT_EQ on doubles is exact — bit-identity, not closeness.
    EXPECT_EQ(a.weights[s], b.weights[s]) << label << " weight " << s;
  }
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
}

TEST(SparseLabelVoting, BitwiseInvariantAcrossShardCountsColdAndWarm) {
  // A noisy population so weighted voting genuinely iterates.
  const LabelDataset dataset = generate_categorical(
      {.num_users = 96, .num_objects = 24, .num_labels = 5,
       .lambda_err = 0.8, .missing_rate = 0.3, .seed = 1});
  const std::size_t L = dataset.num_labels;
  const auto reference_view =
      data::ShardedMatrix::single(dataset.claims, kBlock);
  const VotingResult majority_ref = majority_vote(reference_view, L);
  const VotingResult vote_ref = weighted_vote(reference_view, L);
  ASSERT_GT(vote_ref.iterations, 1u);

  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const std::string label = "K=" + std::to_string(k);
    const auto view = data::ShardedMatrix::partition(dataset.claims, k, kBlock);
    expect_voting_equal(majority_ref, majority_vote(view, L),
                        "majority " + label);
    expect_voting_equal(vote_ref, weighted_vote(view, L), "vote cold " + label);

    // Warm halves of the seed, each against the single-shard twin.
    const VotingResult warm_w_ref =
        weighted_vote(reference_view, L, {}, nullptr, vote_ref.weights);
    expect_voting_equal(
        warm_w_ref, weighted_vote(view, L, {}, nullptr, vote_ref.weights),
        "vote warm-weights " + label);
    const VotingResult warm_t_ref =
        weighted_vote(reference_view, L, {}, nullptr, {}, vote_ref.truths);
    expect_voting_equal(
        warm_t_ref, weighted_vote(view, L, {}, nullptr, {}, vote_ref.truths),
        "vote warm-truths " + label);
  }
}

TEST(RandomizedResponseDebias, KeepOneIsBitwiseIdentity) {
  std::vector<double> scores{3.0, 1.0, 0.0, 2.5, 0.5, 4.0};
  const std::vector<double> original = scores;
  debias_scores(scores, /*num_objects=*/2, /*num_labels=*/3, 1.0);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], original[i]);
  }
}

TEST(RandomizedResponseDebias, RejectsKeepOutsideOpenHalfInterval) {
  std::vector<double> scores(6, 1.0);
  // p must lie in (1/L, 1]: the uniform-noise point 1/L carries no signal.
  EXPECT_THROW(debias_scores(scores, 2, 3, 1.0 / 3.0), std::invalid_argument);
  EXPECT_THROW(debias_scores(scores, 2, 3, 0.2), std::invalid_argument);
  EXPECT_THROW(debias_scores(scores, 2, 3, 1.5), std::invalid_argument);
  // L = 1 makes (1/L, 1] empty: only the p = 1 identity is accepted.
  std::vector<double> single(2, 1.0);
  EXPECT_THROW(debias_scores(single, 2, 1, 0.9), std::invalid_argument);
  debias_scores(single, 2, 1, 1.0);  // identity, no throw
  EXPECT_EQ(single[0], 1.0);
}

TEST(RandomizedResponseDebias, EmptyObjectStaysZeroAndArgmaxIsPreserved) {
  // Object 0 has support, object 1 is empty (nobody claimed it): debiasing
  // must keep its scores exactly zero — (0 - q*0)/(p - q) — not drift them.
  std::vector<double> scores{5.0, 2.0, 1.0, 0.0, 0.0, 0.0};
  debias_scores(scores, 2, 3, 0.6);
  EXPECT_EQ(scores[3], 0.0);
  EXPECT_EQ(scores[4], 0.0);
  EXPECT_EQ(scores[5], 0.0);

  // The affine map has positive slope, so per-object argmax never moves.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(0.0, 10.0);
  constexpr std::size_t kObjects = 20;
  constexpr std::size_t kLabels = 4;
  std::vector<double> raw(kObjects * kLabels);
  for (double& v : raw) v = value(rng);
  const std::vector<Label> before =
      truths_from_scores(raw, kObjects, kLabels);
  debias_scores(raw, kObjects, kLabels, 0.55);
  EXPECT_EQ(truths_from_scores(raw, kObjects, kLabels), before);
}

TEST(RandomizedResponsePerturb, KeepOneIsIdentityAndFlipsStayInRange) {
  Rng rng(99);
  for (Label truth = 0; truth < 5; ++truth) {
    EXPECT_EQ(krr_perturb(truth, 1.0, 5, rng), truth);
  }
  // keep = 0 always flips, and never outside the alphabet.
  for (int i = 0; i < 200; ++i) {
    const Label out = krr_perturb(2, 0.0, 5, rng);
    EXPECT_LT(out, 5u);
    EXPECT_NE(out, 2u);
  }
}

}  // namespace
}  // namespace dptd::categorical
