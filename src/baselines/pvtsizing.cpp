#include "baselines/pvtsizing.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/reward.hpp"
#include "opt/turbo.hpp"

namespace glova::baselines {

// Risk-neutral critic (one Q network, beta1 = 0); verification without the
// mu-sigma gate or reordering.
PvtSizingOptimizer::PvtSizingOptimizer(circuits::TestbenchPtr testbench, PvtSizingConfig config)
    : core::Optimizer(std::move(testbench), config, 1, 0.0,
                      core::VerifierOptions{.use_mu_sigma = false, .use_reordering = false}),
      config_(std::move(config)) {}

void PvtSizingOptimizer::do_start() {
  Session& s = session();
  // TuRBO initial sampling at the typical condition (shared with GLOVA).
  const opt::Turbo turbo = turbo_init(config_.turbo_budget);
  s.x_last = turbo.best_point();
  if (s.x_last.empty()) s.x_last = s.rng.uniform_vector(testbench_->sizing().dimension(), 0.0, 1.0);
  s.buffer.add(s.x_last, 0.0);
}

bool PvtSizingOptimizer::do_step() {
  Session& s = session();
  std::vector<double> x_new = s.agent.propose(s.x_last);
  std::vector<double> x_phys = testbench_->sizing().denormalize(x_new);

  // Batch sampling: every corner, every iteration.
  double r_worst = std::numeric_limits<double>::max();
  for (std::size_t j = 0; j < op_config_.corner_count(); ++j) {
    r_worst = std::min(r_worst, sample_corner(x_phys, j, s.mc_rng));
  }

  // Hard gate (no mu-sigma); standard DDPG: one update per environment step.
  const std::optional<double> stored = verify_or_store(
      std::move(x_new), std::move(x_phys), r_worst, r_worst == core::kSuccessReward, 1);
  if (!stored) return false;
  reanchor(*stored);
  return true;
}

}  // namespace glova::baselines
