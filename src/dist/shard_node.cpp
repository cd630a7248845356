#include "dist/shard_node.h"

#include "categorical/voting.h"
#include "common/check.h"
#include "truth/categorical.h"
#include "truth/catd.h"
#include "truth/crh.h"
#include "truth/gtm.h"
#include "truth/sharded_stats.h"

namespace dptd::dist {

ShardNode::ShardNode(net::NodeId id, net::Transport& network)
    : id_(id), network_(&network) {
  network_->attach(id_, *this);
  attached_ = true;
}

ShardNode::~ShardNode() {
  if (attached_) network_->detach(id_);
}

void ShardNode::fail() {
  if (attached_) {
    network_->detach(id_);
    attached_ = false;
  }
  reset_round_state();
}

void ShardNode::rejoin() {
  reset_round_state();
  if (!attached_) {
    network_->attach(id_, *this);
    attached_ = true;
  }
}

void ShardNode::go_offline() {
  if (attached_) {
    network_->detach(id_);
    attached_ = false;
  }
}

void ShardNode::come_online() {
  if (!attached_) {
    network_->attach(id_, *this);
    attached_ = true;
  }
}

void ShardNode::reset_round_state() {
  round_open_ = false;
  round_ = 0;
  num_objects_ = 0;
  num_labels_ = 0;
  index_.build({});
  ingestor_.reset();
  view_.reset();
  matrix_.reset();
  weights_.clear();
  losses_.clear();
  quality_.clear();
  chi2_.clear();
  disagreement_.clear();
  crh_ = {};
  gtm_ = {};
  catd_ = {};
  vote_ = {};
  drop_weighted_partials();
  moment_partials_.clear();
  // last_op_id_ is deliberately NOT reset: the exactly-once watermark is the
  // dedup floor a real replica persists across restarts, and it is what keeps
  // delayed duplicates of pre-crash ops from re-executing after a rejoin.
  // The cached response bytes ARE volatile.
  last_response_.reset();
}

void ShardNode::drop_weighted_partials() {
  aggregate_partials_.clear();
  gtm_partials_.clear();
}

void ShardNode::on_message(const net::Message& message) {
  switch (static_cast<crowd::MessageType>(message.type)) {
    case crowd::MessageType::kReport:
      handle_report(message, /*is_label=*/false);
      return;
    case crowd::MessageType::kLabelReport:
      handle_report(message, /*is_label=*/true);
      return;
    case crowd::MessageType::kShardRequest:
      handle_request(message);
      return;
    case crowd::MessageType::kShutdown:
      shutdown_requested_ = true;
      return;
    default:
      return;  // not addressed to the shard protocol
  }
}

void ShardNode::handle_report(const net::Message& message, bool is_label) {
  // Every report turned away here counts as exactly one rejected report:
  // round closed (or never set up), wrong kind for the round, undecodable
  // header, another round's straggler, or a user outside this shard's roster
  // slice. A corrupt body is rejected by the ingestor.
  const bool categorical_round = num_labels_ >= 2;
  std::optional<std::size_t> row;
  if (round_open_ && is_label == categorical_round) {
    const std::optional<crowd::ReportHeader> header =
        crowd::Report::peek_header(message.payload);
    if (header.has_value() && header->round == round_) {
      row = index_.row_of(header->user_id);
    }
  }
  if (!row.has_value()) {
    ingestor_.reject();
    return;
  }
  ingestor_.ingest(*row, message.payload, is_label);
}

void ShardNode::handle_request(const net::Message& message) {
  crowd::StatsEnvelope env;
  try {
    env = crowd::StatsEnvelope::decode(message.payload);
  } catch (const DecodeError&) {
    ++malformed_messages_;
    return;
  }
  if (last_op_id_.has_value() && env.op_id <= *last_op_id_) {
    if (env.op_id == *last_op_id_ && last_response_.has_value()) {
      // Exactly-once replay: the op already executed but the coordinator did
      // not see the response (lost, or a resend raced it). Re-executing would
      // be wrong for non-idempotent ops (kFinalizeIngest), so replay the
      // bytes.
      crowd::StatsEnvelope reply;
      reply.op_id = env.op_id;
      reply.op = env.op;
      reply.body = *last_response_;
      network_->send(crowd::make_message(id_, message.source,
                                         crowd::MessageType::kShardResponse,
                                         reply.encode()));
      return;
    }
    // Op ids are globally monotonic per coordinator, so anything below the
    // watermark is a delayed duplicate of an older op or an abandoned
    // pre-re-plan request that jitter delivered after newer ops executed.
    // Executing it would replay a state mutation out of order (a late
    // kFinalizeIngest resetting weights after kSetWeights, a stale kSetup
    // re-imposing an abandoned plan); the coordinator stopped waiting for it
    // long ago, so drop and count.
    ++stale_requests_;
    return;
  }
  std::vector<std::uint8_t> body;
  try {
    body = execute(static_cast<ShardOp>(env.op), env.body);
  } catch (const DecodeError&) {
    // Malformed body (or an op that needs state this shard does not have):
    // count and stay silent. The coordinator's resend/timeout machinery owns
    // recovery; a corrupt message must never kill the shard.
    ++malformed_messages_;
    return;
  }
  last_op_id_ = env.op_id;
  crowd::StatsEnvelope reply;
  reply.op_id = env.op_id;
  reply.op = env.op;
  reply.body = std::move(body);
  network_->send(crowd::make_message(
      id_, message.source, crowd::MessageType::kShardResponse, reply.encode()));
  last_response_ = std::move(reply.body);
}

const data::ShardedMatrix& ShardNode::view() const {
  if (!view_.has_value()) throw DecodeError("shard: no finalized matrix");
  return *view_;
}

std::vector<std::uint8_t> ShardNode::execute(
    ShardOp op, std::span<const std::uint8_t> body) {
  switch (op) {
    case ShardOp::kSetup: {
      const SetupBody setup = SetupBody::decode(body);
      if (setup.num_users == 0 || setup.num_objects == 0 ||
          setup.block_size == 0 || setup.num_shards == 0 ||
          setup.shard_index >= setup.num_shards) {
        throw DecodeError("SetupBody: invalid plan");
      }
      const data::ShardPlan plan = data::ShardPlan::create(
          static_cast<std::size_t>(setup.num_users),
          static_cast<std::size_t>(setup.num_shards),
          static_cast<std::size_t>(setup.block_size));
      if (plan.num_shards != setup.num_shards ||
          setup.participants.size() !=
              plan.shard_num_users(
                  static_cast<std::size_t>(setup.shard_index))) {
        throw DecodeError("SetupBody: roster slice does not match plan");
      }
      if (setup.num_labels == 1 ||
          setup.num_labels > truth::kMaxBridgedLabels) {
        throw DecodeError("SetupBody: invalid label alphabet");
      }
      round_ = setup.round;
      round_open_ = true;
      num_objects_ = static_cast<std::size_t>(setup.num_objects);
      block_size_ = static_cast<std::size_t>(setup.block_size);
      num_labels_ = static_cast<std::size_t>(setup.num_labels);
      index_.build(setup.participants);
      // LDP stays on the device in the distributed deployment: the policy
      // only carries the alphabet for range validation, never a sampling
      // probability.
      crowd::LabelIngestPolicy labels;
      labels.num_labels = num_labels_;
      ingestor_.begin_round(
          setup.participants.size(), num_objects_,
          plan.user_begin(static_cast<std::size_t>(setup.shard_index)),
          round_, labels);
      view_.reset();
      matrix_.reset();
      weights_.clear();
      losses_.clear();
      quality_.clear();
      chi2_.clear();
      disagreement_.clear();
      vote_ = {};
      drop_weighted_partials();
      moment_partials_.clear();
      return {};
    }
    case ShardOp::kFinalizeIngest: {
      // Idempotent: a degraded close retries the finalize phase over the
      // surviving shards under fresh op ids after abandoning the first
      // attempt, so a shard that already finalized must re-serve the summary
      // from its finalized matrix — re-running ingestor_.finalize() would
      // move the ingested rows out and destroy the round's data.
      drop_weighted_partials();
      moment_partials_.clear();
      if (!matrix_.has_value()) {
        if (!ingestor_.armed()) throw DecodeError("shard: no open round");
        round_open_ = false;
        view_.reset();
        vote_ = {};
        matrix_ = ingestor_.finalize();
        const std::size_t local_users = matrix_->num_users();
        view_.emplace(data::ShardedMatrix::single(*matrix_, block_size_));
        weights_.assign(local_users, 1.0);
        losses_.assign(local_users, 0.0);
        quality_.assign(local_users, 1.0);
        chi2_.assign(local_users, 0.0);
        disagreement_.assign(local_users, 0.0);
      }
      const crowd::ShardIngestStats& stats = ingestor_.stats();
      IngestSummaryBody summary;
      summary.reports_received = stats.reports_received;
      summary.duplicates_ignored = stats.duplicates_ignored;
      summary.malformed_reports = stats.malformed_reports;
      summary.rejected_reports = stats.rejected_reports;
      summary.invalid_labels = stats.invalid_labels;
      summary.stale_requests = stale_requests_;
      summary.malformed_messages = malformed_messages_;
      summary.object_counts.resize(num_objects_);
      matrix_->ensure_object_index();
      for (std::size_t n = 0; n < num_objects_; ++n) {
        summary.object_counts[n] = matrix_->object_entries(n).size();
      }
      return summary.encode();
    }
    case ShardOp::kSetWeights: {
      const WeightsBody req = WeightsBody::decode(body);
      const std::size_t local_users = view().num_users();
      if (req.uniform) {
        weights_.assign(local_users, 1.0);
      } else {
        if (req.weights.size() != local_users) {
          throw DecodeError("WeightsBody: slice size mismatch");
        }
        weights_ = req.weights;
      }
      drop_weighted_partials();
      return {};
    }
    case ShardOp::kMomentsPartials: {
      truth::fold_object_moments_partials(view(), moment_partials_);
      return {};
    }
    case ShardOp::kMoments: {
      std::vector<RunningStats> moments = decode_moments(body);
      if (moments.size() != num_objects_ || moment_partials_.empty()) {
        throw DecodeError("moments: size != num objects or no partials");
      }
      truth::apply_object_moments(moment_partials_, moments);
      return encode_moments(moments);
    }
    case ShardOp::kGather: {
      const data::ShardedMatrix& v = view();
      GatherBody out;
      out.lengths.resize(num_objects_);
      matrix_->ensure_object_index();
      std::size_t total = 0;
      for (std::size_t n = 0; n < num_objects_; ++n) {
        out.lengths[n] = matrix_->object_entries(n).size();
        total += matrix_->object_entries(n).size();
      }
      out.values.reserve(total);
      for (std::size_t n = 0; n < num_objects_; ++n) {
        const auto col = matrix_->object_entries(n);
        out.values.insert(out.values.end(), col.values.begin(),
                          col.values.end());
      }
      (void)v;
      return out.encode();
    }
    case ShardOp::kAggregatePartials: {
      truth::weighted_aggregate_partials(view(), weights_,
                                         aggregate_partials_);
      return {};
    }
    case ShardOp::kAggregate: {
      AggregateBody req = AggregateBody::decode(body);
      if (req.stats.counts.size() != num_objects_ ||
          aggregate_partials_.empty()) {
        throw DecodeError("AggregateBody: size != num objects or no partials");
      }
      truth::apply_aggregate_partials(aggregate_partials_, req.stats);
      return req.encode();
    }
    case ShardOp::kCollectWeights: {
      (void)view();  // weights are meaningless before finalize
      WeightsBody out;
      out.uniform = false;
      out.weights = weights_;
      return out.encode();
    }
    case ShardOp::kCrhPrepare: {
      CrhPrepareBody req = CrhPrepareBody::decode(body);
      if (req.stddevs.size() != num_objects_) {
        throw DecodeError("CrhPrepareBody: stddevs size != num objects");
      }
      crh_ = std::move(req);
      return {};
    }
    case ShardOp::kCrhLoss: {
      const TruthsBody req = TruthsBody::decode(body);
      if (req.truths.size() != num_objects_ ||
          crh_.stddevs.size() != num_objects_) {
        throw DecodeError("kCrhLoss: size mismatch or unprepared");
      }
      truth::crh_user_losses(view(), nullptr,
                             static_cast<truth::CrhLoss>(crh_.loss),
                             req.truths, crh_.stddevs, losses_);
      // Local blocks are the global blocks: the coordinator chains these
      // sums after the preceding shards' into the global loss total.
      BlockSumsBody out;
      truth::block_sums(losses_, block_size_, out.sums);
      return out.encode();
    }
    case ShardOp::kCrhWeights: {
      const CrhTotalBody req = CrhTotalBody::decode(body);
      (void)view();
      weights_ = truth::crh_weights_from_losses(losses_, req.total,
                                                crh_.min_loss_fraction);
      drop_weighted_partials();
      return {};
    }
    case ShardOp::kGtmPrepare: {
      GtmPrepareBody req = GtmPrepareBody::decode(body);
      if (req.shift.size() != num_objects_) {
        throw DecodeError("GtmPrepareBody: size != num objects");
      }
      gtm_ = std::move(req);
      gtm_partials_.clear();
      return {};
    }
    case ShardOp::kGtmStep: {
      const GtmStepBody req = GtmStepBody::decode(body);
      if (req.truth_mean.size() != num_objects_ ||
          gtm_.shift.size() != num_objects_) {
        throw DecodeError("GtmStepBody: size mismatch or unprepared");
      }
      truth::GtmConfig config;
      config.quality_prior_alpha = gtm_.quality_prior_alpha;
      config.quality_prior_beta = gtm_.quality_prior_beta;
      config.min_variance = gtm_.min_variance;
      truth::gtm_m_step(view(), nullptr, config, gtm_.shift, gtm_.scale,
                        req.truth_mean, req.truth_var, quality_, weights_);
      drop_weighted_partials();
      return {};
    }
    case ShardOp::kGtmFoldPartials: {
      if (gtm_.shift.size() != num_objects_) {
        throw DecodeError("kGtmFoldPartials: unprepared");
      }
      truth::gtm_posterior_partials(view(), gtm_.shift, gtm_.scale, weights_,
                                    gtm_partials_);
      return {};
    }
    case ShardOp::kGtmFold: {
      GtmFoldBody req = GtmFoldBody::decode(body);
      if (req.precision.size() != num_objects_ || gtm_partials_.empty()) {
        throw DecodeError("GtmFoldBody: size mismatch or no partials");
      }
      truth::apply_gtm_partials(gtm_partials_, req.precision, req.weighted);
      return req.encode();
    }
    case ShardOp::kCatdPrepare: {
      catd_ = CatdPrepareBody::decode(body);
      if (catd_.significance <= 0.0 || catd_.significance >= 1.0) {
        throw DecodeError("CatdPrepareBody: significance out of range");
      }
      chi2_.assign(view().num_users(), 0.0);
      truth::catd_chi_squared(view(), nullptr, catd_.significance, chi2_);
      return {};
    }
    case ShardOp::kCatdWeights: {
      const TruthsBody req = TruthsBody::decode(body);
      if (req.truths.size() != num_objects_) {
        throw DecodeError("TruthsBody: size != num objects");
      }
      truth::catd_user_weights(view(), nullptr, chi2_, req.truths,
                               catd_.min_residual, weights_);
      drop_weighted_partials();
      return {};
    }
    case ShardOp::kVotePrepare: {
      const VotePrepareBody req = VotePrepareBody::decode(body);
      if (req.num_labels < 2 || req.num_labels > truth::kMaxBridgedLabels ||
          !(req.min_disagreement_fraction > 0.0) ||
          req.min_disagreement_fraction >= 1.0) {
        throw DecodeError("VotePrepareBody: invalid parameters");
      }
      const data::ShardedMatrix& v = view();
      vote_ = req;
      disagreement_.assign(v.num_users(), 0.0);
      return {};
    }
    case ShardOp::kVoteScores: {
      VoteScoresBody::decode_into(body, vote_scores_);
      if (vote_.num_labels == 0 ||
          vote_scores_.size() !=
              num_objects_ * static_cast<std::size_t>(vote_.num_labels)) {
        throw DecodeError("VoteScoresBody: size mismatch or unprepared");
      }
      // Continue the global score chain: local blocks are the global blocks
      // (the shard base is block-aligned), so folding on top of the carried
      // table reproduces the in-process fold's bits. The kernel drops
      // non-label claims exactly as in-process, so both vote over the same
      // claims.
      categorical::fold_label_scores(
          view(), static_cast<std::size_t>(vote_.num_labels), nullptr,
          weights_, vote_scores_);
      return VoteScoresBody::encode(vote_scores_);
    }
    case ShardOp::kVoteDisagree: {
      const VoteDisagreeBody req = VoteDisagreeBody::decode(body);
      if (vote_.num_labels == 0 || req.truths.size() != num_objects_) {
        throw DecodeError("VoteDisagreeBody: size mismatch or unprepared");
      }
      categorical::vote_disagreement(
          view(), static_cast<std::size_t>(vote_.num_labels), nullptr,
          req.truths, disagreement_);
      BlockSumsBody out;
      truth::block_sums(disagreement_, block_size_, out.sums);
      return out.encode();
    }
    case ShardOp::kVoteWeights: {
      const CrhTotalBody req = CrhTotalBody::decode(body);
      if (vote_.num_labels == 0 ||
          disagreement_.size() != weights_.size()) {
        throw DecodeError("kVoteWeights: shard not vote-prepared");
      }
      if (req.total <= 0.0) {
        // Unanimous agreement — the in-process driver short-circuits to
        // uniform weights; mirror it so collected weights match bitwise.
        weights_.assign(weights_.size(), 1.0);
      } else {
        categorical::vote_weights_from_disagreement(
            disagreement_, req.total, vote_.min_disagreement_fraction,
            weights_);
      }
      drop_weighted_partials();
      return {};
    }
    case ShardOp::kGetTelemetry: {
      TelemetryBody out;
      out.stale_requests = stale_requests_;
      out.malformed_messages = malformed_messages_;
      return out.encode();
    }
    case ShardOp::kBatch: {
      // Sub-ops execute strictly in order; decode already refused lifecycle
      // ops and nesting, and every remaining op is idempotent, so a mid-batch
      // DecodeError abort (reported as one malformed message, watermark not
      // advanced) is safe for the coordinator to resend.
      const BatchBody req = BatchBody::decode(body);
      BatchReplyBody out;
      out.bodies.reserve(req.items.size());
      for (const BatchItem& item : req.items) {
        out.bodies.push_back(execute(item.op, item.body));
      }
      return out.encode();
    }
  }
  throw DecodeError("shard: unknown op");
}

bool serve_shard(net::Transport& transport, const ShardNode& node,
                 const ShardServiceConfig& config) {
  DPTD_REQUIRE(config.poll_interval_seconds > 0.0,
               "serve_shard: poll interval must be positive");
  double last_activity = transport.now();
  while (!node.shutdown_requested()) {
    const std::size_t delivered =
        transport.poll(transport.now() + config.poll_interval_seconds);
    const double now = transport.now();
    if (delivered > 0) last_activity = now;
    if (config.idle_timeout_seconds > 0.0 && delivered == 0 &&
        now - last_activity >= config.idle_timeout_seconds) {
      transport.run_until_idle();
      return false;
    }
  }
  // Flush responses already queued (the reply to the op that preceded the
  // shutdown may still be in the write queue).
  transport.run_until_idle();
  return true;
}

}  // namespace dptd::dist
