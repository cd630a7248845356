#include "truth/categorical.h"

#include <cmath>

#include "common/check.h"

namespace dptd::truth {
namespace {

void check_num_labels(std::size_t num_labels) {
  DPTD_REQUIRE(num_labels >= 2 && num_labels <= kMaxBridgedLabels,
               "categorical bridge: num_labels out of range");
}

Result to_result(categorical::VotingResult vr) {
  Result out;
  out.truths.reserve(vr.truths.size());
  for (categorical::Label t : vr.truths) {
    out.truths.push_back(static_cast<double>(t));
  }
  out.weights = std::move(vr.weights);
  out.iterations = vr.iterations;
  out.converged = vr.converged;
  return out;
}

}  // namespace

std::size_t infer_num_labels(const data::ShardedMatrix& m) {
  double max_label = -1.0;
  for (std::size_t s = 0; s < m.num_shards(); ++s) {
    m.shard(s).for_each([&](std::size_t, std::size_t, double v) {
      if (categorical::is_label_value(v, kMaxBridgedLabels) && v > max_label) {
        max_label = v;
      }
    });
  }
  const auto inferred =
      max_label < 0.0 ? std::size_t{0} : static_cast<std::size_t>(max_label) + 1;
  return std::max<std::size_t>(inferred, 2);
}

std::vector<categorical::Label> labels_from_doubles(
    std::span<const double> truths, std::size_t num_labels) {
  check_num_labels(num_labels);
  std::vector<categorical::Label> out;
  out.reserve(truths.size());
  for (double t : truths) {
    double rounded = std::isfinite(t) ? std::round(t) : 0.0;
    if (rounded < 0.0) rounded = 0.0;
    const double top = static_cast<double>(num_labels - 1);
    if (rounded > top) rounded = top;
    out.push_back(static_cast<categorical::Label>(rounded));
  }
  return out;
}

MajorityVote::MajorityVote(MajorityVoteConfig config) : config_(config) {
  if (config_.num_labels != 0) check_num_labels(config_.num_labels);
}

Result MajorityVote::run(const data::ObservationMatrix& observations) const {
  return run_sharded(data::ShardedMatrix::single(observations));
}

Result MajorityVote::run_sharded(const data::ShardedMatrix& shards,
                                 const WarmStart& warm) const {
  (void)warm;  // single pass: nothing to seed
  const std::size_t num_labels =
      config_.num_labels != 0 ? config_.num_labels : infer_num_labels(shards);
  RunPool pool(config_.num_threads);
  return to_result(categorical::majority_vote(shards, num_labels, pool.get()));
}

WeightedVote::WeightedVote(WeightedVoteConfig config) : config_(config) {
  if (config_.num_labels != 0) check_num_labels(config_.num_labels);
}

Result WeightedVote::run(const data::ObservationMatrix& observations) const {
  return run_sharded(data::ShardedMatrix::single(observations));
}

Result WeightedVote::run_warm(const data::ObservationMatrix& observations,
                              const WarmStart& warm) const {
  return run_sharded(data::ShardedMatrix::single(observations), warm);
}

Result WeightedVote::run_sharded(const data::ShardedMatrix& shards,
                                 const WarmStart& warm) const {
  validate_warm_start(shards.num_users(), shards.num_objects(), warm);
  const std::size_t num_labels =
      config_.num_labels != 0 ? config_.num_labels : infer_num_labels(shards);
  std::vector<categorical::Label> warm_truths;
  if (!warm.truths.empty()) {
    warm_truths = labels_from_doubles(warm.truths, num_labels);
  }
  RunPool pool(config_.num_threads);
  return to_result(categorical::weighted_vote(shards, num_labels,
                                              config_.voting, pool.get(),
                                              warm.weights, warm_truths));
}

}  // namespace dptd::truth
