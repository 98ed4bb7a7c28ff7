// The GLOVA optimization loop (paper Fig. 2, Secs. III-C and IV):
//
//   0. TuRBO generates design solutions meeting constraints at the typical
//      condition (initial sampling adopted from PVTSizing [9]).
//   1. The actor proposes a new design from the last one.
//   2. The worst PVT corner is selected from the last-worst-case buffer and
//      N' mismatch conditions are sampled via Eq. (3).
//   3. The design is simulated under those conditions.
//   4. The mu-sigma metric decides whether full verification is worthwhile.
//   5. If so, Algorithm 2 verifies with reordered PVT conditions; success
//      terminates the framework.
//   6. Otherwise the worst reward is stored in the replay buffer and the
//      risk-sensitive agent is updated (Algorithm 1).
//
// The loop is one core::Optimizer session, which owns everything but the
// policy: this class keeps step 0's initial dataset and, per iteration, the
// worst-corner draw, the mu-sigma gate and the reuse of the draw as the
// verifier's phase-1 presample.  Each step() performs one Fig. 2 iteration
// (the first also runs step 0 + the initial dataset).
#pragma once

#include <cstddef>

#include "circuits/testbench.hpp"
#include "core/optimizer_base.hpp"

namespace glova::core {

struct GlovaConfig : SessionConfig {
  double beta1 = -3.0;                ///< risk-avoidance (Eq. 6)
  double beta2 = 4.0;                 ///< reliability factor (Eq. 7)
  std::size_t ensemble_size = 5;
  std::size_t turbo_budget = 150;     ///< typical-condition evals for init
  std::size_t init_buffer_seeds = 6;  ///< extra TuRBO designs seeding the buffer
  bool use_ensemble_critic = true;    ///< ablation "w/o EC": single base model
  bool use_mu_sigma = true;           ///< ablation "w/o mu-sigma"
  bool use_reordering = true;         ///< ablation "w/o SR"
};

class GlovaOptimizer final : public Optimizer {
 public:
  GlovaOptimizer(circuits::TestbenchPtr testbench, GlovaConfig config);

  [[nodiscard]] const char* algorithm_name() const override { return "GLOVA"; }

 protected:
  void do_start() override;
  bool do_step() override;

 private:
  GlovaConfig config_;
};

}  // namespace glova::core
