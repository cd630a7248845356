#include "inputs.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "categorical/randomized_response.h"
#include "common/distributions.h"
#include "common/rng.h"
#include "core/mechanism.h"
#include "crowd/protocol.h"

namespace perfbench {

namespace {

// Data model (Li et al., ICDCS 2020, Sec. 5.1, plus the categorical
// extension):
//   - every object has a ground truth: an integer reading level in
//     [0, kTruthLevels) for continuous workloads, a label id for the vote
//     workload;
//   - every user makes kClaimsPerUser claims on distinct objects and has a
//     private error variance sigma_s^2 ~ Exp(kLambda1), so user quality is
//     heterogeneous;
//   - continuous: an honest user observes truth + N(0, sigma_s^2) and uploads
//     it through Algorithm 2 (UserSampledGaussianMechanism::perturb_value,
//     noise variance ~ Exp(kLambda2));
//   - labels: an honest user observes the true label with probability
//     exp(-sigma_s^2), else a uniformly wrong one, and uploads it through
//     k-RR at a private per-user epsilon ~ Exp(kLambdaRr) (krr_perturb);
//   - kLiarFraction of users are constant liars: one fixed value everywhere;
//   - kDuplicateFraction of users re-send their report (an exact duplicate);
//   - kMalformedFraction of reports carry one out-of-range object or
//     non-finite value.
constexpr std::size_t kClaimsPerUser = 6;
constexpr std::size_t kTruthLevels = 20;
constexpr double kLambda1 = 1.0;
constexpr double kLambda2 = 0.5;
constexpr double kLambdaRr = 0.5;
constexpr double kLiarFraction = 0.10;
constexpr double kDuplicateFraction = 0.02;
constexpr double kMalformedFraction = 0.01;

// Independent streams derived from the workload seed.
constexpr std::uint64_t kTruthStream = 1;
constexpr std::uint64_t kUserStream = 2;
constexpr std::uint64_t kMechanismStream = 3;

}  // namespace

Inputs generate_inputs(const InputSpec& spec, std::uint64_t seed,
                       Tracer& tracer) {
  if (spec.users < spec.objects || spec.objects < kClaimsPerUser) {
    throw std::invalid_argument("generate_inputs: inconsistent input spec");
  }
  Inputs in;
  in.spec = spec;
  const std::size_t c = kClaimsPerUser;
  const bool labels = spec.categorical();

  dptd::Rng truth_rng(dptd::derive_seed(seed, kTruthStream));
  in.truths.resize(spec.objects);
  const std::size_t levels = labels ? spec.num_labels : kTruthLevels;
  for (double& truth : in.truths) {
    truth = static_cast<double>(dptd::uniform_index(truth_rng, levels));
  }

  const dptd::core::UserSampledGaussianMechanism gaussian(
      {kLambda2, dptd::derive_seed(seed, kMechanismStream)});
  const dptd::categorical::UserSampledRandomizedResponse krr(
      {kLambdaRr, dptd::derive_seed(seed, kMechanismStream)});
  const std::uint32_t perturb_span =
      tracer.intern(labels ? "categorical.krr_perturb" : "core.perturb_value");

  in.objects.resize(spec.users * c);
  if (labels) {
    in.labels.resize(spec.users * c);
  } else {
    in.values.resize(spec.users * c);
  }
  in.submission.reserve(spec.users + spec.users / 32);

  for (std::size_t s = 0; s < spec.users; ++s) {
    dptd::Rng rng(dptd::derive_seed(seed, kUserStream, s));
    const bool liar = dptd::bernoulli(rng, kLiarFraction);
    const bool duplicate = dptd::bernoulli(rng, kDuplicateFraction);
    const bool malformed = dptd::bernoulli(rng, kMalformedFraction);
    const double error_variance = dptd::exponential(rng, kLambda1);

    // Distinct objects; the first is s mod N so every object is covered.
    std::uint32_t* objects = &in.objects[s * c];
    objects[0] = static_cast<std::uint32_t>(s % spec.objects);
    for (std::size_t j = 1; j < c; ++j) {
      for (;;) {
        const auto candidate =
            static_cast<std::uint32_t>(dptd::uniform_index(rng, spec.objects));
        bool fresh = true;
        for (std::size_t k = 0; k < j; ++k) fresh &= objects[k] != candidate;
        if (fresh) {
          objects[j] = candidate;
          break;
        }
      }
    }

    if (labels) {
      const double keep = dptd::categorical::krr_keep_probability(
          krr.user_epsilon(s), spec.num_labels);
      const double observe_correct = std::exp(-error_variance);
      for (std::size_t j = 0; j < c; ++j) {
        const auto truth = static_cast<std::uint32_t>(in.truths[objects[j]]);
        std::uint32_t observed = 0;  // a constant liar's label
        if (!liar) {
          observed = truth;
          if (!dptd::bernoulli(rng, observe_correct)) {
            observed = static_cast<std::uint32_t>(
                (truth + 1 + dptd::uniform_index(rng, spec.num_labels - 1)) %
                spec.num_labels);
          }
        }
        HotScope scope(tracer, perturb_span);
        in.labels[s * c + j] = dptd::categorical::krr_perturb(
            observed, keep, spec.num_labels, rng);
      }
    } else {
      const double sigma = std::sqrt(error_variance);
      for (std::size_t j = 0; j < c; ++j) {
        // A constant liar claims reading level 0 everywhere.
        const double reading =
            liar ? 0.0 : dptd::normal(rng, in.truths[objects[j]], sigma);
        HotScope scope(tracer, perturb_span);
        in.values[s * c + j] = gaussian.perturb_value(s, reading, rng);
      }
    }

    if (malformed) {
      // One bad claim: an out-of-range object, or a non-finite reading.
      if (labels || s % 2 == 0) {
        objects[c - 1] = static_cast<std::uint32_t>(spec.objects + s % 7);
      } else {
        in.values[s * c + c - 1] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    in.malformed += malformed ? 1 : 0;
    in.valid_claims += malformed ? c - 1 : c;
    in.submission.push_back(static_cast<std::uint32_t>(s));
    if (duplicate) {
      in.submission.push_back(static_cast<std::uint32_t>(s));
      ++in.duplicates;
    }
  }
  return in;
}

void encode_round(const Inputs& inputs, std::uint64_t round, Tracer& tracer,
                  Corpus& corpus) {
  const InputSpec& spec = inputs.spec;
  const std::size_t c = kClaimsPerUser;
  const std::uint32_t encode_span = tracer.intern("crowd.encode");
  corpus.bytes.clear();
  corpus.offsets.clear();
  corpus.offsets.reserve(spec.users + 1);
  corpus.offsets.push_back(0);
  dptd::crowd::Report report;
  dptd::crowd::LabelReport label_report;
  report.round = label_report.round = round;
  for (std::size_t s = 0; s < spec.users; ++s) {
    const auto at = static_cast<std::ptrdiff_t>(s * c);
    const auto end = at + static_cast<std::ptrdiff_t>(c);
    const auto objects = inputs.objects.begin();
    std::vector<std::uint8_t> payload;
    if (spec.categorical()) {
      label_report.user_id = s;
      label_report.objects.assign(objects + at, objects + end);
      label_report.labels.assign(inputs.labels.begin() + at,
                                 inputs.labels.begin() + end);
      HotScope scope(tracer, encode_span);
      payload = label_report.encode();
    } else {
      report.user_id = s;
      report.objects.assign(objects + at, objects + end);
      report.values.assign(inputs.values.begin() + at,
                           inputs.values.begin() + end);
      HotScope scope(tracer, encode_span);
      payload = report.encode();
    }
    corpus.bytes.insert(corpus.bytes.end(), payload.begin(), payload.end());
    corpus.offsets.push_back(corpus.bytes.size());
  }
}

std::uint64_t digest(const Corpus& corpus) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : corpus.bytes) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfbench
