#include "categorical/voting.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "truth/sharded_stats.h"

namespace dptd::categorical {

namespace {

void check_num_labels(std::size_t num_labels) {
  // Every id below num_labels must fit a Label, so casting a valid claim
  // value to Label never wraps.
  DPTD_REQUIRE(num_labels >= 2 &&
                   num_labels <= std::numeric_limits<Label>::max(),
               "categorical voting: num_labels out of range");
}

}  // namespace

double label_accuracy(const std::vector<Label>& estimate,
                      const std::vector<Label>& truth) {
  DPTD_REQUIRE(estimate.size() == truth.size() && !estimate.empty(),
               "label_accuracy: size mismatch or empty");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < estimate.size(); ++i) {
    if (estimate[i] == truth[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(estimate.size());
}

void fold_label_scores(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const double> weights,
                       std::span<double> scores) {
  check_num_labels(num_labels);
  const std::size_t L = num_labels;
  DPTD_REQUIRE(weights.size() == m.num_users(),
               "fold_label_scores: weights size != num users");
  DPTD_REQUIRE(scores.size() == m.num_objects() * L,
               "fold_label_scores: scores size != num_objects * num_labels");
  const std::size_t block_size = m.plan().block_size;
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    shard.ensure_object_index();
    // Parallel across objects; shards are reduced in ascending order, so the
    // fold chain per (object, label) bin is independent of the shard count.
    for_each_range(pool, m.num_objects(), [&](std::size_t begin,
                                              std::size_t end) {
      std::vector<double> acc(L, 0.0);
      std::vector<double> seg(L, 0.0);
      for (std::size_t n = begin; n < end; ++n) {
        const auto col = shard.object_entries(n);
        // Dropped claims take no part in the chain: the first valid claim
        // opens the first segment, and a column without one is untouched.
        std::size_t i = 0;
        while (i < col.size() && !is_label_value(col.values[i], L)) ++i;
        if (i == col.size()) continue;
        for (std::size_t v = 0; v < L; ++v) {
          acc[v] = scores[n * L + v];
          seg[v] = 0.0;
        }
        // Columns are user-ascending, so a segment ends exactly when the
        // local user id reaches the current block's end — one comparison per
        // claim, one division per segment (see truth/sharded_stats.h).
        std::size_t block = (base + col.users[i]) / block_size;
        std::size_t block_end = (block + 1) * block_size - base;
        for (; i < col.size(); ++i) {
          const double value = col.values[i];
          if (!is_label_value(value, L)) continue;
          const std::size_t user = col.users[i];  // shard-local id
          if (user >= block_end) {
            for (std::size_t v = 0; v < L; ++v) {
              acc[v] += seg[v];
              seg[v] = 0.0;
            }
            block = (base + user) / block_size;
            block_end = (block + 1) * block_size - base;
          }
          seg[static_cast<Label>(value)] += weights[base + user];
        }
        for (std::size_t v = 0; v < L; ++v) scores[n * L + v] = acc[v] + seg[v];
      }
    });
  }
}

std::vector<Label> truths_from_scores(std::span<const double> scores,
                                      std::size_t num_objects,
                                      std::size_t num_labels) {
  DPTD_REQUIRE(scores.size() == num_objects * num_labels,
               "truths_from_scores: scores size mismatch");
  std::vector<Label> truths(num_objects, 0);
  for (std::size_t n = 0; n < num_objects; ++n) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < num_labels; ++k) {
      if (scores[n * num_labels + k] > scores[n * num_labels + best]) best = k;
    }
    truths[n] = static_cast<Label>(best);
  }
  return truths;
}

void debias_scores(std::span<double> scores, std::size_t num_objects,
                   std::size_t num_labels, double keep_probability) {
  DPTD_REQUIRE(scores.size() == num_objects * num_labels,
               "debias_scores: scores size mismatch");
  if (keep_probability == 1.0) return;  // no perturbation, nothing to invert
  const double p = keep_probability;
  const std::size_t L = num_labels;
  DPTD_REQUIRE(p > 1.0 / static_cast<double>(L) && p <= 1.0,
               "debias_scores: keep probability must be in (1/num_labels, 1]");
  const double q = (1.0 - p) / static_cast<double>(L - 1);
  const double slope = p - q;  // positive: p > 1/L
  for (std::size_t n = 0; n < num_objects; ++n) {
    double support = 0.0;
    for (std::size_t k = 0; k < L; ++k) support += scores[n * L + k];
    for (std::size_t k = 0; k < L; ++k) {
      scores[n * L + k] = (scores[n * L + k] - q * support) / slope;
    }
  }
}

void vote_disagreement(const data::ShardedMatrix& m, std::size_t num_labels,
                       ThreadPool* pool, std::span<const Label> truths,
                       std::span<double> disagreement) {
  check_num_labels(num_labels);
  DPTD_REQUIRE(truths.size() == m.num_objects(),
               "vote_disagreement: truths size != num objects");
  DPTD_REQUIRE(disagreement.size() == m.num_users(),
               "vote_disagreement: disagreement size != num users");
  // Purely per-user state: nothing to merge, execution order is free.
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    const data::ObservationMatrix& shard = m.shard(s);
    const std::size_t base = m.user_base(s);
    for_each_range(pool, shard.num_users(),
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t local = begin; local < end; ++local) {
                       double d = 0.0;
                       for (const data::ObservationMatrix::Entry& e :
                            shard.user_entries(local)) {
                         if (is_label_value(e.value, num_labels) &&
                             static_cast<Label>(e.value) != truths[e.object]) {
                           d += 1.0;
                         }
                       }
                       disagreement[base + local] = d;
                     }
                   });
  }
}

void vote_weights_from_disagreement(std::span<const double> disagreement,
                                    double total, double min_fraction,
                                    std::span<double> weights) {
  DPTD_REQUIRE(weights.size() == disagreement.size(),
               "vote_weights_from_disagreement: size mismatch");
  for (std::size_t s = 0; s < disagreement.size(); ++s) {
    const double fraction = std::max(disagreement[s] / total, min_fraction);
    weights[s] = -std::log(fraction);
  }
}

VotingResult majority_vote(const data::ShardedMatrix& m,
                           std::size_t num_labels, ThreadPool* pool) {
  check_num_labels(num_labels);
  VotingResult result;
  result.weights.assign(m.num_users(), 1.0);
  std::vector<double> scores(m.num_objects() * num_labels, 0.0);
  fold_label_scores(m, num_labels, pool, result.weights, scores);
  result.truths = truths_from_scores(scores, m.num_objects(), num_labels);
  result.iterations = 1;
  result.converged = true;
  return result;
}

VotingResult weighted_vote(const data::ShardedMatrix& m,
                           std::size_t num_labels,
                           const WeightedVotingConfig& config, ThreadPool* pool,
                           std::span<const double> warm_weights,
                           std::span<const Label> warm_truths) {
  check_num_labels(num_labels);
  DPTD_REQUIRE(config.max_iterations > 0,
               "weighted_vote: max_iterations must be positive");
  DPTD_REQUIRE(config.min_disagreement_fraction > 0.0 &&
                   config.min_disagreement_fraction < 1.0,
               "weighted_vote: min_disagreement_fraction must be in (0,1)");
  DPTD_REQUIRE(warm_weights.empty() || warm_weights.size() == m.num_users(),
               "weighted_vote: warm weights size != num users");
  DPTD_REQUIRE(warm_truths.empty() || warm_truths.size() == m.num_objects(),
               "weighted_vote: warm truths size != num objects");

  VotingResult result;
  if (warm_weights.empty()) {
    result.weights.assign(m.num_users(), 1.0);
  } else {
    result.weights.assign(warm_weights.begin(), warm_weights.end());
  }
  std::vector<double> scores(m.num_objects() * num_labels, 0.0);
  if (warm_truths.empty()) {
    fold_label_scores(m, num_labels, pool, result.weights, scores);
    result.truths = truths_from_scores(scores, m.num_objects(), num_labels);
  } else {
    for (Label t : warm_truths) {
      DPTD_REQUIRE(t < num_labels, "weighted_vote: warm truth label");
    }
    result.truths.assign(warm_truths.begin(), warm_truths.end());
  }

  std::vector<double> disagreement(m.num_users(), 0.0);
  for (std::size_t it = 1; it <= config.max_iterations; ++it) {
    // Weight update: disagreement count per user, CRH Eq. (3) on 0/1 loss.
    vote_disagreement(m, num_labels, pool, result.truths, disagreement);
    const double total =
        truth::block_chain_sum(disagreement, m.plan().block_size);
    if (total <= 0.0) {
      // Unanimous agreement with the estimates: uniform weights, done.
      std::fill(result.weights.begin(), result.weights.end(), 1.0);
      result.iterations = it;
      result.converged = true;
      return result;
    }
    vote_weights_from_disagreement(disagreement, total,
                                   config.min_disagreement_fraction,
                                   result.weights);

    std::fill(scores.begin(), scores.end(), 0.0);
    fold_label_scores(m, num_labels, pool, result.weights, scores);
    std::vector<Label> next =
        truths_from_scores(scores, m.num_objects(), num_labels);
    const bool unchanged = next == result.truths;
    result.truths = std::move(next);
    result.iterations = it;
    if (unchanged) {
      result.converged = true;
      break;
    }
  }
  return result;
}

VotingResult majority_vote(const data::ObservationMatrix& claims,
                           std::size_t num_labels) {
  return majority_vote(data::ShardedMatrix::single(claims), num_labels);
}

VotingResult weighted_vote(const data::ObservationMatrix& claims,
                           std::size_t num_labels,
                           const WeightedVotingConfig& config) {
  return weighted_vote(data::ShardedMatrix::single(claims), num_labels,
                       config);
}

}  // namespace dptd::categorical
