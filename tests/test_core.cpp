// Tests for the GLOVA core pieces: Table I configuration, the Eq. 4/5
// reward, the mu-sigma evaluation (Eq. 7), reordering scores (Eqs. 8-10),
// and the evaluation engine's simulation count.
#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "core/config.hpp"
#include "core/evaluation_engine.hpp"
#include "core/mu_sigma.hpp"
#include "core/reordering.hpp"
#include "core/reward.hpp"

namespace glova::core {
namespace {

using circuits::MetricSpec;
using circuits::PerformanceSpec;
using circuits::Sense;

PerformanceSpec two_metric_spec() {
  PerformanceSpec spec;
  spec.metrics = {MetricSpec{"a", "u", 1.0, 10.0, Sense::MinimizeBelow},
                  MetricSpec{"b", "u", 1.0, 5.0, Sense::MaximizeAbove}};
  return spec;
}

TEST(Config, TableOneRows) {
  const auto c = OperationalConfig::for_method(VerifMethod::C);
  EXPECT_TRUE(c.predefined_process);
  EXPECT_FALSE(c.global_mismatch);
  EXPECT_FALSE(c.local_mismatch);
  EXPECT_EQ(c.n_opt, 1u);
  EXPECT_EQ(c.corner_count(), 30u);
  EXPECT_EQ(c.full_verification_sims(), 30u);

  const auto mcl = OperationalConfig::for_method(VerifMethod::C_MCL);
  EXPECT_TRUE(mcl.predefined_process);
  EXPECT_FALSE(mcl.global_mismatch);
  EXPECT_TRUE(mcl.local_mismatch);
  EXPECT_EQ(mcl.n_opt, 3u);
  EXPECT_EQ(mcl.full_verification_sims(), 3000u);  // 30 x 100

  const auto mcgl = OperationalConfig::for_method(VerifMethod::C_MCGL);
  EXPECT_FALSE(mcgl.predefined_process);
  EXPECT_TRUE(mcgl.global_mismatch);
  EXPECT_TRUE(mcgl.local_mismatch);
  EXPECT_EQ(mcgl.corner_count(), 6u);
  EXPECT_EQ(mcgl.full_verification_sims(), 6000u);  // 6 x 1000
}

TEST(Config, SamplingModes) {
  EXPECT_EQ(OperationalConfig::for_method(VerifMethod::C).sampling_mode(), pdk::GlobalMode::Zero);
  EXPECT_EQ(OperationalConfig::for_method(VerifMethod::C_MCL).sampling_mode(),
            pdk::GlobalMode::Zero);
  EXPECT_EQ(OperationalConfig::for_method(VerifMethod::C_MCGL).verification_sampling_mode(),
            pdk::GlobalMode::PerSample);
}

TEST(Reward, AllMetricsPassGivesSuccessReward) {
  const auto spec = two_metric_spec();
  // a = 5 (below 10: pass), b = 8 (above 5: pass).
  EXPECT_DOUBLE_EQ(reward_from_metrics(spec, std::vector<double>{5.0, 8.0}), kSuccessReward);
  EXPECT_TRUE(all_constraints_met(spec, std::vector<double>{5.0, 8.0}));
}

TEST(Reward, OnlyViolationsContribute) {
  const auto spec = two_metric_spec();
  // a fails (15 > 10), b passes: reward = f_a < 0 only.
  const auto f = margins(spec, std::vector<double>{15.0, 8.0});
  EXPECT_LT(f[0], 0.0);
  EXPECT_GT(f[1], 0.0);
  EXPECT_DOUBLE_EQ(reward_from_metrics(spec, std::vector<double>{15.0, 8.0}), f[0]);
}

TEST(Reward, MultipleViolationsSum) {
  const auto spec = two_metric_spec();
  const auto f = margins(spec, std::vector<double>{20.0, 2.0});
  EXPECT_DOUBLE_EQ(reward_from_metrics(spec, std::vector<double>{20.0, 2.0}), f[0] + f[1]);
}

TEST(MuSigma, PassesWhenDistributionClearsBound) {
  const auto spec = two_metric_spec();
  // Tight cluster well inside the constraints.
  const std::vector<std::vector<double>> samples = {{5.0, 8.0}, {5.1, 8.1}, {4.9, 7.9}};
  const auto r = mu_sigma_evaluate(spec, samples, 4.0);
  EXPECT_TRUE(r.pass);
  for (const double e : r.e) EXPECT_LE(e, 0.0);
}

TEST(MuSigma, HighVarianceFailsEvenWhenMeanPasses) {
  const auto spec = two_metric_spec();
  // Mean of metric a is ~7 (passes) but the spread reaches the bound.
  const std::vector<std::vector<double>> samples = {{3.0, 8.0}, {7.0, 8.0}, {11.5, 8.0}};
  const auto strict = mu_sigma_evaluate(spec, samples, 4.0);
  EXPECT_FALSE(strict.pass);
  // A small beta2 tolerates it: the reliability factor is the knob.
  const auto loose = mu_sigma_evaluate(spec, samples, 0.1);
  EXPECT_TRUE(loose.pass);
}

TEST(MuSigma, SingleSampleReducesToHardCheck) {
  const auto spec = two_metric_spec();
  EXPECT_TRUE(mu_sigma_evaluate(spec, {{5.0, 8.0}}, 4.0).pass);
  EXPECT_FALSE(mu_sigma_evaluate(spec, {{15.0, 8.0}}, 4.0).pass);
}

TEST(MuSigma, TScoreSumsPerMetricBounds) {
  const auto spec = two_metric_spec();
  const auto r = mu_sigma_evaluate(spec, {{5.0, 8.0}, {6.0, 7.5}}, 4.0);
  EXPECT_NEAR(r.t_score, r.e[0] + r.e[1], 1e-12);
  EXPECT_THROW((void)mu_sigma_evaluate(spec, {}, 4.0), std::invalid_argument);
}

TEST(Reordering, WorseCornersGetHigherTScore) {
  const auto spec = two_metric_spec();
  const auto good = mu_sigma_evaluate(spec, {{4.0, 9.0}, {4.2, 9.1}}, 4.0);
  const auto bad = mu_sigma_evaluate(spec, {{9.0, 5.5}, {9.2, 5.6}}, 4.0);
  EXPECT_GT(bad.t_score, good.t_score);
}

TEST(Reordering, HScoreAndOrdering) {
  const std::vector<double> rho = {1.0, -0.5};
  EXPECT_DOUBLE_EQ(h_score(std::vector<double>{2.0, 2.0}, rho), 1.0);
  EXPECT_DOUBLE_EQ(h_score(std::vector<double>{0.0, 2.0}, rho), -1.0);
  const std::vector<double> scores = {0.3, -0.1, 0.9, 0.3};
  const auto order = order_descending(scores);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 0u);  // stable: first 0.3 before second
  EXPECT_EQ(order[2], 3u);
  EXPECT_EQ(order[3], 1u);
}

TEST(Reordering, CorrelationIdentifiesHarmfulAxis) {
  const auto spec = two_metric_spec();
  // Samples where coordinate 0 of h drives metric a upward (bad).
  std::vector<std::vector<double>> hs;
  std::vector<double> g;
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const double h0 = rng.normal();
    const double h1 = rng.normal();
    hs.push_back({h0, h1});
    const double metric_a = 8.0 + 2.0 * h0;
    g.push_back(total_degradation(spec, std::vector<double>{metric_a, 8.0}));
  }
  const auto rho = correlation_vector(hs, g);
  EXPECT_GT(rho[0], 0.8);
  EXPECT_NEAR(rho[1], 0.0, 0.25);
}

TEST(Engine, CountsEverySimulation) {
  EvaluationEngine service(circuits::make_testbench(circuits::Testcase::Sal));
  const auto& sz = service.testbench().sizing();
  std::vector<double> x01(sz.dimension(), 0.5);
  const auto x = sz.denormalize(x01);
  EXPECT_EQ(service.simulation_count(), 0u);
  (void)service.evaluate_one(x, pdk::typical_corner(), {});
  EXPECT_EQ(service.simulation_count(), 1u);
  const std::vector<std::vector<double>> hs(5);
  (void)service.evaluate_batch(x, pdk::typical_corner(), hs);
  EXPECT_EQ(service.simulation_count(), 6u);
  service.reset_count();
  EXPECT_EQ(service.simulation_count(), 0u);
}

TEST(Engine, BatchMatchesSequentialEvaluation) {
  EvaluationEngine service(circuits::make_testbench(circuits::Testcase::DramOcsa));
  const auto& tb = service.testbench();
  std::vector<double> x01(tb.sizing().dimension(), 0.6);
  const auto x = tb.sizing().denormalize(x01);
  const auto layout = tb.mismatch_layout(x, true);
  Rng rng(13);
  const auto hs = pdk::sample_mismatch_set(layout, 40, rng, pdk::GlobalMode::PerSample);
  const auto batch = service.evaluate_batch(x, pdk::typical_corner(), hs);
  for (std::size_t i = 0; i < hs.size(); ++i) {
    EXPECT_EQ(batch[i], tb.evaluate(x, pdk::typical_corner(), hs[i]));
  }
}

}  // namespace
}  // namespace glova::core
