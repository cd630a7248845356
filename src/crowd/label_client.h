// Client side of a categorical campaign: build a LabelReport whose claims
// were perturbed locally with k-ary randomized response, and a simulated
// device that answers task announcements with one such upload.
//
// This is the LDP deployment of the categorical extension — the label leaves
// the device already randomized, so the server (which only debiases
// aggregates) never observes a raw claim. The flip stream is keyed by
// (seed, round, user id), never by arrival order, so a fleet replays
// bit-identically under any network schedule.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "categorical/voting.h"
#include "crowd/device.h"
#include "crowd/protocol.h"
#include "net/network.h"

namespace dptd::crowd {

/// Builds the upload for one user: every claim of `truths` passed through
/// k-RR at `keep_probability` (1.0 = identity, no draws consumed; must be in
/// (1/num_labels, 1] otherwise). Draws come from
/// Rng(derive_seed(seed, round, user_id)) — one stream per (round, user),
/// independent of every other report.
LabelReport make_label_report(std::uint64_t round, net::NodeId user_id,
                              std::span<const std::uint64_t> objects,
                              std::span<const categorical::Label> truths,
                              std::size_t num_labels, double keep_probability,
                              std::uint64_t seed);

struct LabelDeviceConfig {
  net::NodeId id = 0;  ///< also the user index in the matrix
  net::NodeId server_id = 0;
  DeviceBehavior behavior = DeviceBehavior::kHonest;
  std::size_t num_labels = 2;
  /// Per-report LDP budget of the client-side k-RR; <= 0 disables local
  /// perturbation (a trusted-aggregator deployment — the server may still
  /// apply its own LabelIngestPolicy sampling).
  double epsilon = 1.0;
  categorical::Label constant_label = 0;  ///< kConstantLiar payload
  double think_time_seconds = 0.5;
  std::uint64_t seed = 1;
};

/// The categorical twin of UserDevice: on TaskAnnounce it perturbs its
/// private labels with k-RR and uploads a single LabelReport after the think
/// time. Shares DeviceBehavior so robustness fleets mix continuous and
/// categorical adversaries: a constant liar claims `constant_label`
/// everywhere, a spammer draws uniform labels, a duplicator re-sends the
/// identical upload.
class LabelDevice final : public net::Node {
 public:
  /// `objects[i]`/`labels[i]` are the device's private claims.
  LabelDevice(LabelDeviceConfig config, std::vector<std::uint64_t> objects,
              std::vector<categorical::Label> labels, net::Network& network);

  void on_message(const net::Message& message) override;

  /// Re-tasks the device for a new round, mirroring UserDevice::retask.
  void retask(std::vector<std::uint64_t> objects,
              std::vector<categorical::Label> labels, std::uint64_t seed);

  void set_behavior(DeviceBehavior behavior) { config_.behavior = behavior; }

  /// Truths the device received back from the server (empty until publish).
  const std::vector<double>& published_truths() const {
    return published_truths_;
  }

  const LabelDeviceConfig& config() const { return config_; }

 private:
  void handle_task(const TaskAnnounce& task);

  LabelDeviceConfig config_;
  std::vector<std::uint64_t> objects_;
  std::vector<categorical::Label> labels_;
  net::Network* network_;
  std::vector<double> published_truths_;
};

}  // namespace dptd::crowd
