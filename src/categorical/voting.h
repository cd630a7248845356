// Truth discovery for categorical claims (extension module).
//
// EXTENSION (beyond the reproduced paper): the paper handles continuous
// data and cites its companion work (Li et al., KDD 2018 [23]) for the
// categorical case. This module provides the categorical analogue so the
// library covers both data types; DESIGN.md lists it as an extension.
//
// Claims live in the same sparse container as continuous ones: a
// data::ObservationMatrix whose values are label ids stored as exact small
// doubles. The label alphabet size is passed to every kernel, and a claim
// whose value fails is_label_value is skipped where it is read (sanitize,
// never abort), so every layer sees the same valid claims.
//
//  - majority_vote: quality-blind plurality per object.
//  - weighted_vote: the CRH-style iteration on labels — weight users by
//    -log of their share of total disagreement with the current estimates,
//    then take the weighted plurality. Same two principles as Algorithm 1.
//
// Both are built on mergeable sufficient statistics in the style of
// truth/sharded_stats.h: per-object label histograms folded in canonical
// user-block order (flat within a block of plan.block_size users, block
// partials chained ascending) and per-user disagreement counts totalled by
// truth::block_chain_sum. Shard boundaries are block-aligned, so a K-shard
// run is bitwise identical to the single-shard run for any K — and the
// distributed coordinator reproduces the exact same chain over the wire.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/sharding.h"

namespace dptd::categorical {

using Label = std::uint32_t;

/// True iff `value` encodes a valid label id below `num_labels`: finite,
/// integral, and in [0, num_labels). NaN fails both range tests and +inf the
/// upper one. No id beyond the Label range exists, so the bound is capped
/// there and the truncating cast of the integrality test is always defined;
/// a caller that passes the test reads the id as static_cast<Label>(value).
inline bool is_label_value(double value, std::size_t num_labels) {
  constexpr std::size_t kLabelRange =
      std::size_t{std::numeric_limits<Label>::max()} + 1;
  const double bound = static_cast<double>(std::min(num_labels, kLabelRange));
  return value >= 0.0 && value < bound &&
         static_cast<double>(static_cast<Label>(value)) == value;
}

/// Fraction of objects where `estimate` matches `truth` (accuracy metric of
/// the categorical literature).
double label_accuracy(const std::vector<Label>& estimate,
                      const std::vector<Label>& truth);

struct VotingResult {
  std::vector<Label> truths;    ///< one label per object
  std::vector<double> weights;  ///< one non-negative weight per user
  std::size_t iterations = 0;
  bool converged = false;
};

struct WeightedVotingConfig {
  std::size_t max_iterations = 50;
  /// Stop when no object's estimate changed between iterations.
  double min_disagreement_fraction = 1e-12;  ///< clamp before the log
};

// ---------------------------------------------------------------------------
// Mergeable kernels (the sharded/distributed building blocks).
// ---------------------------------------------------------------------------

/// Adds each shard's weighted per-object label histogram into `scores`
/// (row-major num_objects x num_labels; callers pre-initialize with zeros or
/// the preceding shards' partial). Weights are indexed by *global* user id.
/// Claims are summed flat within a canonical user block and block partials
/// are chained in ascending order, so the result is bitwise identical for
/// any shard count and any `pool` size. A claim that is not a label id is
/// skipped before the block-boundary test: it never opens or closes a
/// segment, so the chain is the one over the valid claims alone.
void fold_label_scores(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const double> weights,
                       std::span<double> scores);

/// Plurality per object from a score table: argmax over labels, ties break
/// toward the smaller label id (deterministic). Objects with no support
/// (all-zero scores) resolve to label 0.
std::vector<Label> truths_from_scores(std::span<const double> scores,
                                      std::size_t num_objects,
                                      std::size_t num_labels);

/// Inverts k-RR expectation in place: with keep probability p and flip
/// probability q = (1-p)/(L-1) per other label, an observed (weighted) count
/// c_l on an object with total support W becomes (c_l - q*W) / (p - q) — the
/// unbiased estimate of the true support. The map is affine with positive
/// slope (requires p > 1/L), so per-object argmax is unchanged; the value is
/// honest support/confidence figures under LDP. p = 1 is the identity.
/// Throws std::invalid_argument for p outside (1/L, 1].
void debias_scores(std::span<double> scores, std::size_t num_objects,
                   std::size_t num_labels, double keep_probability);

/// Per-user count of valid label claims disagreeing with `truths`. Purely
/// per-user state (no merge): each user's count comes from their own row.
/// `disagreement` is indexed by global user id and fully overwritten.
void vote_disagreement(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const Label> truths,
                       std::span<double> disagreement);

/// CRH Eq. (3) on 0/1 loss: weights[s] = -log(max(d_s/total, min_fraction)).
/// Call with the block-chained total (truth::block_chain_sum over the
/// disagreement vector); total <= 0 means unanimous agreement and the caller
/// short-circuits to uniform weights.
void vote_weights_from_disagreement(std::span<const double> disagreement,
                                    double total, double min_fraction,
                                    std::span<double> weights);

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

/// Plurality vote per object; ties break toward the smaller label id.
/// Bitwise identical for any shard count of `m` and any `pool` size.
VotingResult majority_vote(const data::ShardedMatrix& m,
                           std::size_t num_labels, ThreadPool* pool = nullptr);

/// CRH-style iterative weighted voting. `warm_weights` (global user ids)
/// seeds the first aggregation when non-empty; empty seeds uniformly — a
/// warm start with all-1.0 weights is bitwise identical to a cold run.
/// `warm_truths` (one label per object) skips the initial aggregation
/// entirely and starts the iteration from the given estimates.
VotingResult weighted_vote(const data::ShardedMatrix& m,
                           std::size_t num_labels,
                           const WeightedVotingConfig& config = {},
                           ThreadPool* pool = nullptr,
                           std::span<const double> warm_weights = {},
                           std::span<const Label> warm_truths = {});

/// Convenience single-shard entry points over a flat matrix.
VotingResult majority_vote(const data::ObservationMatrix& claims,
                           std::size_t num_labels);
VotingResult weighted_vote(const data::ObservationMatrix& claims,
                           std::size_t num_labels,
                           const WeightedVotingConfig& config = {});

}  // namespace dptd::categorical
