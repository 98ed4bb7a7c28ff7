// PVTSizing baseline (Kong et al., DAC 2024 [9]): a TuRBO-RL batch-sampling
// framework for PVT-robust analog synthesis, reimplemented from its published
// description for Table II.
//
// Differences from GLOVA that the paper's comparison isolates:
//   - batch sampling: EVERY predefined corner is simulated at every RL
//     iteration (k x N' simulations per step instead of GLOVA's N' at the
//     single worst corner),
//   - risk-neutral critic: one Q network, no ensemble bound (beta1 = 0),
//   - verification: a full k x N sweep with neither the mu-sigma gate nor
//     simulation reordering (it still aborts at the first failing run).
// Shared with GLOVA: TuRBO initial sampling at the typical condition.
//
// It is a core::Optimizer session like GLOVA's, which owns the engine,
// buffers, agent, verifier and checkpoint codec; this class keeps only the
// policy: TuRBO init, then the every-corner batch each iteration.
#pragma once

#include <cstddef>

#include "circuits/testbench.hpp"
#include "core/optimizer_base.hpp"

namespace glova::baselines {

struct PvtSizingConfig : core::SessionConfig {
  std::size_t turbo_budget = 150;
};

class PvtSizingOptimizer final : public core::Optimizer {
 public:
  PvtSizingOptimizer(circuits::TestbenchPtr testbench, PvtSizingConfig config);

  [[nodiscard]] const char* algorithm_name() const override { return "PVTSizing"; }

 protected:
  void do_start() override;
  bool do_step() override;

 private:
  PvtSizingConfig config_;
};

}  // namespace glova::baselines
