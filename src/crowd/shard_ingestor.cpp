#include "crowd/shard_ingestor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "categorical/randomized_response.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace dptd::crowd {

bool ingest_report_claims(data::ObservationMatrixBuilder& builder,
                          std::size_t local_user, const Report& report,
                          std::size_t num_objects) {
  const std::size_t count =
      std::min(report.objects.size(), report.values.size());
  bool clean = count == report.objects.size() && count == report.values.size();
  for (std::size_t i = 0; clean && i < count; ++i) {
    clean = report.objects[i] < num_objects && std::isfinite(report.values[i]);
  }
  if (clean) {
    builder.add_row(local_user, report.objects, report.values);
    return false;
  }
  std::vector<std::uint64_t> objects;
  std::vector<double> values;
  objects.reserve(count);
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (report.objects[i] >= num_objects) continue;
    if (!std::isfinite(report.values[i])) continue;
    objects.push_back(report.objects[i]);
    values.push_back(report.values[i]);
  }
  builder.add_row(local_user, objects, values);
  return true;
}

LabelIngestOutcome ingest_label_claims(data::ObservationMatrixBuilder& builder,
                                       std::size_t local_user,
                                       std::size_t global_user,
                                       const LabelReport& report,
                                       std::size_t num_objects,
                                       const LabelIngestPolicy& policy,
                                       std::uint64_t round) {
  LabelIngestOutcome outcome;
  const std::size_t count =
      std::min(report.objects.size(), report.labels.size());
  outcome.malformed =
      count != report.objects.size() || count != report.labels.size();
  std::vector<std::uint64_t> objects;
  std::vector<double> values;
  objects.reserve(count);
  values.reserve(count);
  // One lazily-created stream per report, keyed by (round, global user): the
  // draws consumed are a function of the report alone, never of which thread
  // or shard ingests it, so every ingestion mode lands identical bits.
  std::optional<Rng> rng;
  const bool sample = policy.rr_keep_probability < 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (report.objects[i] >= num_objects) {
      outcome.malformed = true;
      continue;
    }
    if (report.labels[i] >= policy.num_labels) {
      ++outcome.invalid_labels;
      continue;
    }
    categorical::Label label = report.labels[i];
    if (sample) {
      if (!rng) rng.emplace(derive_seed(policy.rr_seed, round, global_user));
      label = categorical::krr_perturb(label, policy.rr_keep_probability,
                                       policy.num_labels, *rng);
    }
    objects.push_back(report.objects[i]);
    values.push_back(static_cast<double>(label));
  }
  builder.add_row(local_user, objects, values);
  return outcome;
}

void ShardIngestor::begin_round(std::size_t num_users, std::size_t num_objects,
                                std::size_t user_base, std::uint64_t round,
                                const LabelIngestPolicy& labels) {
  if (builder_.has_value()) {
    builder_->reshape(num_users, num_objects);
  } else {
    builder_.emplace(num_users, num_objects);
  }
  stats_ = ShardIngestStats{};
  user_base_ = user_base;
  round_ = round;
  labels_ = labels;
}

void ShardIngestor::reset() {
  builder_.reset();
  stats_ = ShardIngestStats{};
}

bool ShardIngestor::ingest(std::size_t local_user,
                           std::span<const std::uint8_t> payload,
                           bool is_label) {
  data::ObservationMatrixBuilder& builder = *builder_;
  try {
    if (is_label) {
      const LabelReport report = LabelReport::decode(payload);
      if (builder.has_row(local_user)) {
        ++stats_.duplicates_ignored;
        return false;
      }
      // The sampling stream is keyed by the GLOBAL row, so the bits are
      // identical for every shard and worker count.
      const LabelIngestOutcome outcome =
          ingest_label_claims(builder, local_user, user_base_ + local_user,
                              report, builder.num_objects(), labels_, round_);
      if (outcome.malformed) ++stats_.malformed_reports;
      stats_.invalid_labels += outcome.invalid_labels;
    } else {
      const Report report = Report::decode(payload);
      if (builder.has_row(local_user)) {
        ++stats_.duplicates_ignored;
        return false;
      }
      if (ingest_report_claims(builder, local_user, report,
                               builder.num_objects())) {
        ++stats_.malformed_reports;
      }
    }
  } catch (const DecodeError&) {
    // The header routed here but the claim arrays are garbage: counted on
    // the owning shard, exactly once.
    ++stats_.rejected_reports;
    return false;
  }
  ++stats_.reports_received;
  return true;
}

}  // namespace dptd::crowd
