#include "crowd/server.h"

#include <unordered_map>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace dptd::crowd {

void ParticipantIndex::build(const std::vector<net::NodeId>& participants) {
  size_ = participants.size();
  rows_.clear();
  identity_ = true;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (participants[i] != static_cast<net::NodeId>(i)) {
      identity_ = false;
      break;
    }
  }
  if (identity_) return;
  rows_.reserve(participants.size());
  for (std::size_t i = 0; i < participants.size(); ++i) {
    rows_.emplace(participants[i], i);
  }
}

std::optional<std::size_t> ParticipantIndex::row_of(net::NodeId user) const {
  if (identity_) {
    if (static_cast<std::size_t>(user) >= size_) return std::nullopt;
    return static_cast<std::size_t>(user);
  }
  const auto it = rows_.find(user);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

std::vector<double> remap_warm_weights(
    const WarmState& warm, const std::vector<net::NodeId>& participants,
    std::size_t num_users) {
  const std::vector<double>& prev = warm.result.weights;
  if (prev.empty() || num_users != participants.size()) return {};
  if (warm.participants == participants) {
    // Unchanged roster: the fast path, bitwise identical to seeding with the
    // previous round's weights directly.
    return prev.size() == num_users ? prev : std::vector<double>{};
  }
  if (prev.size() != warm.participants.size()) return {};
  // Roster changed: carry each surviving user's weight through its stable
  // node id. Users new to the roster (or returning after a gap the state no
  // longer covers) start from the *surviving* fleet's mean weight — neutral
  // on the converged scale, unlike the cold 1.0, and unbiased by whatever
  // cohort just departed.
  std::unordered_map<net::NodeId, double> by_user;
  by_user.reserve(prev.size());
  for (std::size_t i = 0; i < prev.size(); ++i) {
    by_user.emplace(warm.participants[i], prev[i]);
  }
  std::vector<double> weights(num_users, 0.0);
  std::vector<char> survived(num_users, 0);
  double survivor_sum = 0.0;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const auto it = by_user.find(participants[i]);
    if (it != by_user.end()) {
      weights[i] = it->second;
      survived[i] = 1;
      survivor_sum += it->second;
      ++survivors;
    }
  }
  // A fully replaced fleet has no per-user signal to carry over.
  if (survivors == 0) return {};
  const double fill = survivor_sum / static_cast<double>(survivors);
  for (std::size_t i = 0; i < num_users; ++i) {
    if (!survived[i]) weights[i] = fill;
  }
  return weights;
}

bool aggregate_and_publish(const ServerConfig& config,
                           truth::TruthDiscovery& method,
                           net::Transport& network,
                           std::uint64_t round,
                           const std::vector<net::NodeId>& participants,
                           const data::ShardedMatrix& matrix, WarmState& warm,
                           RoundOutcome& outcome) {
  // Objects nobody reported on cannot be aggregated; require coverage across
  // the union of shards and skip aggregation gracefully when violated.
  for (std::size_t n = 0; n < config.num_objects; ++n) {
    if (matrix.object_observation_count(n) == 0) {
      DPTD_LOG_WARN << "round " << round
                    << ": uncovered objects, skipping aggregation";
      return false;
    }
  }

  Stopwatch timer;
  truth::WarmStart seed;
  if (config.warm_start && warm.valid && method.supports_warm_start()) {
    seed.truths = warm.result.truths;
    seed.weights = remap_warm_weights(warm, participants, matrix.num_users());
    outcome.warm_started = true;
  }
  outcome.result = method.run_sharded(matrix, seed);
  outcome.aggregation_seconds = timer.elapsed_seconds();
  warm.result = outcome.result;
  warm.participants = participants;
  warm.valid = true;

  ResultPublish publish;
  publish.round = round;
  publish.truths = outcome.result.truths;
  const std::vector<std::uint8_t> payload = publish.encode();
  for (net::NodeId user : participants) {
    network.send(
        make_message(config.id, user, MessageType::kResultPublish, payload));
  }
  return true;
}

}  // namespace dptd::crowd
