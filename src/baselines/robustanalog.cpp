#include "baselines/robustanalog.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/state_io.hpp"
#include "core/reward.hpp"
#include "opt/kmeans.hpp"
#include "pdk/variation.hpp"

namespace glova::baselines {

// Risk-neutral critic (one Q network, beta1 = 0); verification without the
// mu-sigma gate or reordering.
RobustAnalogOptimizer::RobustAnalogOptimizer(circuits::TestbenchPtr testbench,
                                             RobustAnalogConfig config)
    : core::Optimizer(std::move(testbench), config, 1, 0.0,
                      core::VerifierOptions{.use_mu_sigma = false, .use_reordering = false}),
      config_(std::move(config)) {}

void RobustAnalogOptimizer::save_policy_state(std::ostream& os) const {
  const std::vector<std::uint64_t> dominant(dominant_.begin(), dominant_.end());
  state::write_u64s(os, "dominant", dominant);
}

void RobustAnalogOptimizer::load_policy_state(std::istream& is) {
  const auto dominant = state::read_u64s(is, "dominant");
  dominant_.assign(dominant.begin(), dominant.end());
  for (const std::size_t j : dominant_) {
    if (j >= op_config_.corner_count()) state::bad("RobustAnalog dominant corner out of range");
  }
}

void RobustAnalogOptimizer::recluster(std::span<const double> x01) {
  Session& s = session();
  const circuits::PerformanceSpec& spec = testbench_->performance();
  const std::size_t k = op_config_.corner_count();
  const auto x = testbench_->sizing().denormalize(x01);
  std::vector<std::vector<double>> signatures(k);
  for (std::size_t j = 0; j < k; ++j) {
    core::CornerPresample draw;
    (void)sample_corner(x, j, s.mc_rng, &draw);
    // Signature: mean normalized margins across the sampled conditions.
    std::vector<double> mean_margins(spec.count(), 0.0);
    for (const auto& m : draw.metrics) {
      const auto f = core::margins(spec, m);
      for (std::size_t i = 0; i < f.size(); ++i) mean_margins[i] += f[i] / draw.metrics.size();
    }
    signatures[j] = std::move(mean_margins);
  }
  const std::size_t n_clusters = std::min(config_.clusters, k);
  Rng cluster_rng = s.rng.split(0xC1);  // deterministic given the seed
  const opt::KMeansResult clusters = opt::kmeans(signatures, n_clusters, cluster_rng);
  dominant_.assign(n_clusters, 0);
  std::vector<double> worst(n_clusters, std::numeric_limits<double>::max());
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t c = clusters.assignment[j];
    if (s.last_worst.reward(j) < worst[c]) {
      worst[c] = s.last_worst.reward(j);
      dominant_[c] = j;
    }
  }
}

void RobustAnalogOptimizer::do_start() {
  Session& s = session();
  const circuits::SizingSpec& sizing = testbench_->sizing();
  const circuits::PerformanceSpec& spec = testbench_->performance();
  const std::size_t p = sizing.dimension();

  // --- random initial sampling (no TuRBO: the limitation [9] pointed out).
  std::vector<double> x_best;
  double best_reward = -std::numeric_limits<double>::max();
  const pdk::PvtCorner typical = pdk::typical_corner();
  for (std::size_t i = 0; i < config_.random_init_samples; ++i) {
    const auto x01 = s.rng.uniform_vector(p, 0.0, 1.0);
    const auto x = sizing.denormalize(x01);
    const double r = core::reward_from_metrics(spec, s.engine.evaluate_one(x, typical, {}));
    if (r > best_reward) {
      best_reward = r;
      x_best = x01;
    }
  }
  result_.turbo_evaluations = s.engine.simulation_count();  // init cost (random here)

  // --- corner signatures of the incumbent -> k-means -> dominant corners.
  if (x_best.empty()) x_best = s.rng.uniform_vector(p, 0.0, 1.0);
  recluster(x_best);

  s.buffer.add(x_best, best_reward);
  s.x_last = std::move(x_best);
}

bool RobustAnalogOptimizer::do_step() {
  Session& s = session();
  std::vector<double> x_new = s.agent.propose(s.x_last);
  std::vector<double> x_phys = testbench_->sizing().denormalize(x_new);

  // Simulate only the dominant corner of each cluster.
  double r_worst = std::numeric_limits<double>::max();
  for (const std::size_t j : dominant_) {
    r_worst = std::min(r_worst, sample_corner(x_phys, j, s.mc_rng));
  }

  // Hard gate (no mu-sigma); standard DDPG: one update per environment step.
  if (!verify_or_store(std::move(x_new), std::move(x_phys), r_worst,
                       r_worst == core::kSuccessReward, 1)
           .has_value()) {
    return false;
  }
  // RobustAnalog follows the plain DDPG chain: no re-anchoring onto the
  // best-known design (one of the stability gaps the later works close).
  if (s.iter % config_.recluster_interval == 0) {
    recluster(s.buffer.best() ? s.buffer.best()->x01 : s.x_last);
  }
  return true;
}

}  // namespace glova::baselines
