// ShardIngestor, the one ingest core behind every ingestion path: each kind
// of report lands in exactly one counter, a corrupt re-send is rejected
// rather than counted as a duplicate (the body is decoded before the dedup
// check), and server-side k-RR sampling depends on the global row only, so
// every shard layout ingests identical bits.
#include "crowd/shard_ingestor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "crowd/protocol.h"

namespace dptd::crowd {
namespace {

constexpr std::size_t kObjects = 3;
constexpr std::size_t kLabels = 4;

std::vector<std::uint8_t> continuous(std::vector<std::uint64_t> objects,
                                     std::vector<double> values) {
  Report report;
  report.round = 1;
  report.user_id = 0;
  report.objects = std::move(objects);
  report.values = std::move(values);
  return report.encode();
}

std::vector<std::uint8_t> label(std::vector<std::uint64_t> objects,
                                std::vector<std::uint32_t> labels) {
  LabelReport report;
  report.round = 1;
  report.user_id = 0;
  report.objects = std::move(objects);
  report.labels = std::move(labels);
  return report.encode();
}

/// A payload whose header still parses but whose claim arrays end early.
std::vector<std::uint8_t> truncated(std::vector<std::uint8_t> payload) {
  payload.resize(payload.size() - 3);
  return payload;
}

struct Submission {
  std::vector<std::uint8_t> payload;
  bool counted = false;  ///< ingest() must report a new distinct reporter
};

struct Case {
  std::string name;
  bool is_label = false;
  std::vector<Submission> submissions;
  ShardIngestStats expected;
};

TEST(ShardIngestor, CountsEveryReportInExactlyOneCounter) {
  const std::vector<std::uint8_t> clean = continuous({0, 1, 2}, {1, 2, 3});
  const std::vector<std::uint8_t> clean_label = label({0, 1}, {1, 2});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Case> cases = {
      {"accepted", false, {{clean, true}}, {1, 0, 0, 0, 0}},
      {"duplicate",
       false,
       {{clean, true}, {continuous({0}, {9}), false}},
       {1, 1, 0, 0, 0}},
      {"undecodable body", false, {{truncated(clean), false}}, {0, 0, 0, 1, 0}},
      {"corrupt duplicate",
       false,
       {{clean, true}, {truncated(clean), false}},
       {1, 0, 0, 1, 0}},
      {"malformed claims",
       false,
       {{continuous({0, 1, 57}, {nan, 8.0, 1.0}), true}},
       {1, 0, 1, 0, 0}},
      {"label accepted", true, {{clean_label, true}}, {1, 0, 0, 0, 0}},
      {"out-of-alphabet label",
       true,
       {{label({0, 1}, {1, 99}), true}},
       {1, 0, 0, 0, 1}},
      {"label out-of-range object",
       true,
       {{label({0, 57}, {1, 2}), true}},
       {1, 0, 1, 0, 0}},
      {"corrupt label duplicate",
       true,
       {{clean_label, true}, {truncated(clean_label), false}},
       {1, 0, 0, 1, 0}},
  };
  for (const Case& c : cases) {
    LabelIngestPolicy labels;
    if (c.is_label) labels.num_labels = kLabels;
    ShardIngestor ingestor;
    ingestor.begin_round(/*num_users=*/2, kObjects, /*user_base=*/0,
                         /*round=*/1, labels);
    for (const Submission& s : c.submissions) {
      EXPECT_EQ(ingestor.ingest(0, s.payload, c.is_label), s.counted)
          << c.name;
    }
    const ShardIngestStats& stats = ingestor.stats();
    EXPECT_EQ(stats.reports_received, c.expected.reports_received) << c.name;
    EXPECT_EQ(stats.duplicates_ignored, c.expected.duplicates_ignored)
        << c.name;
    EXPECT_EQ(stats.malformed_reports, c.expected.malformed_reports)
        << c.name;
    EXPECT_EQ(stats.rejected_reports, c.expected.rejected_reports) << c.name;
    EXPECT_EQ(stats.invalid_labels, c.expected.invalid_labels) << c.name;
    ingestor.reject();
    EXPECT_EQ(ingestor.stats().rejected_reports,
              c.expected.rejected_reports + 1)
        << c.name;
    const data::ObservationMatrix matrix = ingestor.finalize();
    EXPECT_EQ(matrix.user_entries(0).empty(),
              c.expected.reports_received == 0)
        << c.name;
  }
}

TEST(ShardIngestor, ServerSideRrIsKeyedByTheGlobalRow) {
  // Global row 6 of an 8-user round, ingested by shards whose ranges start at
  // 0, 2, 4 and 6: every layout must land the same sampled labels.
  constexpr std::size_t kUsers = 8;
  constexpr std::size_t kGlobalRow = 6;
  constexpr std::size_t kClaims = 24;
  LabelIngestPolicy labels;
  labels.num_labels = kLabels;
  labels.rr_keep_probability = 0.4;
  std::vector<std::uint64_t> objects;
  std::vector<std::uint32_t> claims;
  for (std::size_t n = 0; n < kClaims; ++n) {
    objects.push_back(n);
    claims.push_back(static_cast<std::uint32_t>(n % kLabels));
  }
  const std::vector<std::uint8_t> payload = label(objects, claims);

  std::vector<double> reference;
  for (const std::size_t base : {0u, 2u, 4u, 6u}) {
    ShardIngestor ingestor;
    ingestor.begin_round(kUsers - base, kClaims, base, /*round=*/1, labels);
    ASSERT_TRUE(ingestor.ingest(kGlobalRow - base, payload, true));
    const data::ObservationMatrix matrix = ingestor.finalize();
    std::vector<double> row;
    for (const auto& entry : matrix.user_entries(kGlobalRow - base)) {
      row.push_back(entry.value);
    }
    ASSERT_EQ(row.size(), kClaims) << base;
    if (reference.empty()) {
      reference = row;
      continue;
    }
    EXPECT_EQ(row, reference) << "user_base " << base;
  }
  // The sampling really ran: some label was flipped.
  bool flipped = false;
  for (std::size_t n = 0; n < kClaims; ++n) {
    if (reference[n] != static_cast<double>(claims[n])) flipped = true;
  }
  EXPECT_TRUE(flipped);
}

}  // namespace
}  // namespace dptd::crowd
