// Cross-module integration tests: the full Algorithm 2 path from data
// generation through the simulated crowd sensing network to accounting, and
// consistency between the local pipeline and the distributed session.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/accountant.h"
#include "core/empirical.h"
#include "core/pipeline.h"
#include "crowd/session.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "floorplan/walker.h"
#include "testing/temp_dir.h"
#include "truth/registry.h"

namespace dptd {
namespace {

TEST(EndToEnd, BudgetPlannerPathHoldsEmpirically) {
  // 1. Pick a privacy target and derive lambda2 via Theorem 4.8.
  const double lambda1 = 2.0;
  const core::PrivacyTarget target{1.0, 0.3};
  const core::SensitivityParams sens{1.0, 0.5};
  const double c = core::min_noise_level_for_privacy(target, lambda1, sens);
  const double lambda2 = core::lambda2_for_noise_level(c, lambda1);

  // 2. Run the full pipeline at that lambda2.
  data::SyntheticConfig synth;
  synth.lambda1 = lambda1;
  synth.seed = 21;
  const data::Dataset dataset = data::generate_synthetic(synth);
  core::PipelineConfig pipeline;
  pipeline.lambda2 = lambda2;
  const core::PipelineResult run =
      run_private_truth_discovery(dataset, pipeline);

  // 3. The empirical epsilon at the Lemma 4.7 sensitivity must not exceed
  //    the target epsilon by more than estimator slack.
  const core::UserSampledGaussianMechanism mech(
      {.lambda2 = lambda2, .seed = 9});
  core::EmpiricalLdpConfig ldp;
  ldp.x1 = 0.0;
  ldp.x2 = core::sensitivity_bound(lambda1, sens);
  ldp.samples = 150'000;
  const double eps_hat = core::estimate_epsilon(mech, target.delta, ldp);
  EXPECT_LT(eps_hat, target.epsilon * 1.5)
      << "empirical epsilon should not blow past the accountant's target";

  // 4. And utility survived.
  EXPECT_LT(run.utility_mae, run.report.mean_absolute_noise);
}

TEST(EndToEnd, DistributedSessionMatchesLocalPipelineModuloNoise) {
  // Same data, same method. Noise streams differ (devices sample their own),
  // so results differ slightly — but both must stay near the original
  // aggregates.
  data::SyntheticConfig synth;
  synth.num_users = 60;
  synth.num_objects = 20;
  synth.seed = 31;
  const data::Dataset dataset = data::generate_synthetic(synth);

  const auto crh = truth::make_method("crh");
  const truth::Result original = crh->run(dataset.observations);

  core::PipelineConfig pipeline;
  pipeline.lambda2 = 2.0;
  const core::PipelineResult local =
      run_private_truth_discovery(dataset, pipeline);

  crowd::SessionConfig session;
  session.lambda2 = 2.0;
  const crowd::SessionResult remote = crowd::run_session(dataset, session);

  const double local_mae =
      mean_absolute_error(local.perturbed.truths, original.truths);
  const double remote_mae =
      mean_absolute_error(remote.round.result.truths, original.truths);
  EXPECT_LT(local_mae, 0.5);
  EXPECT_LT(remote_mae, 0.5);
}

TEST(EndToEnd, FloorplanScenarioThroughPipeline) {
  floorplan::FloorplanScenarioConfig scenario_config;
  scenario_config.num_users = 80;
  scenario_config.num_segments = 50;
  const floorplan::FloorplanScenario scenario =
      floorplan::generate_floorplan_scenario(scenario_config);

  core::PipelineConfig pipeline;
  pipeline.lambda2 = 0.5;  // avg noise ~1 meter
  const core::PipelineResult run =
      run_private_truth_discovery(scenario.dataset, pipeline);

  // Perturbed aggregation must stay close to unperturbed aggregation
  // relative to segment scale (5-40 m).
  EXPECT_LT(run.utility_mae, 1.0);
  // And remain a sane floorplan estimate overall.
  EXPECT_LT(run.truth_mae_perturbed, 3.0);
}

TEST(EndToEnd, DatasetSurvivesDiskRoundTripThroughPipeline) {
  const dptd::testing::TempDir dir("dptd_e2e");
  const std::string obs_path = dir.file("obs.csv");
  const std::string truth_path = dir.file("truth.csv");

  data::SyntheticConfig synth;
  synth.num_users = 30;
  synth.num_objects = 10;
  synth.seed = 77;
  const data::Dataset dataset = data::generate_synthetic(synth);
  data::save_dataset(dataset, obs_path, truth_path);
  const data::Dataset loaded = data::load_dataset(obs_path, truth_path);

  core::PipelineConfig pipeline;
  pipeline.lambda2 = 1.0;
  pipeline.seed = 5;
  const core::PipelineResult a = run_private_truth_discovery(dataset, pipeline);
  const core::PipelineResult b = run_private_truth_discovery(loaded, pipeline);
  EXPECT_NEAR(a.utility_mae, b.utility_mae, 1e-9);
}

TEST(EndToEnd, AdversariesAndPerturbationTogether) {
  // Robustness under combined threat: 10% constant liars + DP noise. The
  // weighted method must still beat the mean on ground-truth error.
  data::SyntheticConfig synth;
  synth.num_users = 100;
  synth.num_objects = 30;
  synth.adversary_fraction = 0.1;
  synth.adversary_kind = "constant";
  synth.seed = 13;
  const data::Dataset dataset = data::generate_synthetic(synth);

  const core::UserSampledGaussianMechanism mech({.lambda2 = 1.0, .seed = 3});
  const auto crh = truth::make_method("crh");
  const auto mean_method = truth::make_method("mean");
  const core::PipelineResult weighted =
      run_private_truth_discovery(dataset, mech, *crh);
  const core::PipelineResult plain =
      run_private_truth_discovery(dataset, mech, *mean_method);
  EXPECT_LT(weighted.truth_mae_perturbed, plain.truth_mae_perturbed);
}

TEST(EndToEnd, WeightEstimatesRemainInformativeAfterPerturbation) {
  data::SyntheticConfig synth;
  synth.num_users = 120;
  synth.num_objects = 40;
  synth.lambda1 = 1.0;
  synth.seed = 17;
  const data::Dataset dataset = data::generate_synthetic(synth);

  core::PipelineConfig pipeline;
  pipeline.lambda2 = 1.0;
  const core::PipelineResult run =
      run_private_truth_discovery(dataset, pipeline);

  // On perturbed data, estimated weights must still correlate with the true
  // post-perturbation quality (paper Fig. 7's message).
  const core::UserSampledGaussianMechanism mech(
      {.lambda2 = 1.0, .seed = pipeline.seed});
  const core::PerturbationOutcome outcome =
      mech.perturb(dataset.observations);
  const eval::WeightComparison cmp = eval::compare_weights(
      outcome.perturbed, dataset.ground_truth, run.perturbed.weights);
  EXPECT_GT(cmp.pearson, 0.5);
}

TEST(EndToEnd, EveryRegistryMethodRunsDeterministicallyUnderFixedSeed) {
  // Regression guard for the whole Algorithm 2 surface: every advertised
  // method must run end-to-end through run_private_truth_discovery, and with
  // a fixed mechanism seed two runs must agree bitwise (perturb() is
  // documented deterministic in (seed, matrix)).
  data::SyntheticConfig synth;
  synth.num_users = 40;
  synth.num_objects = 15;
  synth.seed = 101;
  const data::Dataset dataset = data::generate_synthetic(synth);

  for (const char* name : {"crh", "gtm", "catd", "mean", "median"}) {
    const auto method = truth::make_method(name);
    ASSERT_NE(method, nullptr) << name;

    const core::UserSampledGaussianMechanism mech_a(
        {.lambda2 = 1.5, .seed = 4242});
    const core::UserSampledGaussianMechanism mech_b(
        {.lambda2 = 1.5, .seed = 4242});
    const core::PipelineResult a =
        run_private_truth_discovery(dataset, mech_a, *method);
    const core::PipelineResult b =
        run_private_truth_discovery(dataset, mech_b, *method);

    ASSERT_EQ(a.perturbed.truths.size(), dataset.ground_truth.size()) << name;
    ASSERT_EQ(a.perturbed.weights.size(), synth.num_users) << name;
    EXPECT_TRUE(std::isfinite(a.utility_mae)) << name;
    EXPECT_TRUE(std::isfinite(a.truth_mae_perturbed)) << name;
    for (std::size_t n = 0; n < a.perturbed.truths.size(); ++n) {
      EXPECT_DOUBLE_EQ(a.perturbed.truths[n], b.perturbed.truths[n])
          << name << " object " << n;
    }
    EXPECT_DOUBLE_EQ(a.utility_mae, b.utility_mae) << name;
    EXPECT_DOUBLE_EQ(a.report.mean_absolute_noise, b.report.mean_absolute_noise)
        << name;
  }
}

TEST(EndToEnd, PipelineConfigPathCoversEveryRegistryMethod) {
  // The config-driven entry point must accept every name the registry
  // advertises (the string plumbing is what ties the CLI and crowd layers to
  // the truth methods).
  data::SyntheticConfig synth;
  synth.num_users = 25;
  synth.num_objects = 10;
  synth.seed = 55;
  const data::Dataset dataset = data::generate_synthetic(synth);

  for (const std::string& name : truth::method_names()) {
    core::PipelineConfig pipeline;
    pipeline.method = name;
    pipeline.lambda2 = 2.0;
    pipeline.seed = 11;
    const core::PipelineResult run =
        run_private_truth_discovery(dataset, pipeline);
    EXPECT_TRUE(std::isfinite(run.utility_mae)) << name;
    EXPECT_GT(run.report.perturbed_cells, 0u) << name;
  }
}

}  // namespace
}  // namespace dptd
