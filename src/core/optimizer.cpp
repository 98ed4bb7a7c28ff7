#include "core/optimizer.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/mu_sigma.hpp"
#include "core/reward.hpp"
#include "opt/turbo.hpp"

namespace glova::core {

GlovaOptimizer::GlovaOptimizer(circuits::TestbenchPtr testbench, GlovaConfig config)
    : Optimizer(std::move(testbench), config,
                config.use_ensemble_critic ? config.ensemble_size : 1,
                config.use_ensemble_critic ? config.beta1 : 0.0,
                VerifierOptions{.beta2 = config.beta2,
                                .use_mu_sigma = config.use_mu_sigma,
                                .use_reordering = config.use_reordering}),
      config_(std::move(config)) {}

void GlovaOptimizer::do_start() {
  Session& s = session();
  const circuits::SizingSpec& sizing = testbench_->sizing();
  const circuits::PerformanceSpec& spec = testbench_->performance();

  // ---------------- Step 0: TuRBO initial sampling (typical condition) ----
  const opt::Turbo turbo = turbo_init(config_.turbo_budget);

  // ---------------- Initial dataset: simulate across all corners ----------
  std::vector<double> x_best = turbo.best_point();
  if (x_best.empty()) x_best = s.rng.uniform_vector(sizing.dimension(), 0.0, 1.0);
  {
    // The best initial design is simulated under every PVT corner; its worst
    // rewards initialize the last-worst-case buffer and the replay buffer.
    const auto x = sizing.denormalize(x_best);
    Rng stream = s.rng.split(0x1717);
    double overall_worst = std::numeric_limits<double>::max();
    for (std::size_t j = 0; j < op_config_.corner_count(); ++j) {
      overall_worst = std::min(overall_worst, sample_corner(x, j, stream));
    }
    s.buffer.add(x_best, overall_worst);
  }
  {
    // A few more TuRBO designs, evaluated at the current worst corner only,
    // densify the initial dataset cheaply.
    Rng stream = s.rng.split(0x1718);
    const std::size_t worst_j = s.last_worst.worst_corner();
    for (const auto& x01 : turbo.top_points(config_.init_buffer_seeds + 1)) {
      if (x01 == x_best) continue;
      const auto x = sizing.denormalize(x01);
      const auto hs = op_config_.sample_conditions(*testbench_, x, op_config_.n_opt, stream);
      const auto metrics = s.engine.evaluate_batch(x, op_config_.corners[worst_j], hs);
      s.buffer.add(x01, worst_reward_of(spec, metrics));
    }
  }

  // Warm up the risk-sensitive agent on the initial dataset.
  (void)s.agent.update(s.buffer, 100);

  s.x_last = std::move(x_best);
}

// One iteration of the main loop (Fig. 2 steps 1-6).
bool GlovaOptimizer::do_step() {
  Session& s = session();
  const circuits::PerformanceSpec& spec = testbench_->performance();

  // (1) new design from the actor, screened by the ensemble bound (Eq. 6).
  std::vector<double> x_new = s.agent.propose_screened(s.x_last, 8);
  std::vector<double> x_phys = testbench_->sizing().denormalize(x_new);

  // (2) worst corner + N' mismatch conditions via Eq. (3); (3) simulate
  // under them.  The draw is kept: it is phase 1's presample for that corner.
  CornerPresample draw;
  const double r_worst = sample_corner(x_phys, s.last_worst.worst_corner(), s.mc_rng, &draw);

  // (4) mu-sigma gate: is full verification worthwhile?
  const bool gate = config_.use_mu_sigma
                        ? mu_sigma_evaluate(spec, draw.metrics, config_.beta2).pass
                        : r_worst == kSuccessReward;

  // (5) full verification with reordered PVT conditions; (6) store the
  // worst reward and update the agent.  Several gradient rounds per
  // environment step: network updates cost microseconds next to a SPICE
  // run, and Algorithm 1 does not couple the two one-to-one.
  const std::optional<double> stored =
      verify_or_store(std::move(x_new), std::move(x_phys), r_worst, gate, 3, &draw);
  if (!stored) return false;
  reanchor(*stored);
  return true;
}

}  // namespace glova::core
