// RobustAnalog baseline (He et al., MLCAD 2022 [8]): fast variation-aware
// sizing via multi-task RL, reimplemented from its published description for
// Table II.
//
// Characteristics the paper's comparison isolates:
//   - random initial sampling (no TuRBO) — the limitation PVTSizing fixed,
//   - every PVT corner is a task; k-means clustering of the corners'
//     performance signatures prunes the task set to the dominant corner of
//     each cluster, which is what gets simulated each iteration,
//   - periodic re-clustering (full corner sweeps on the incumbent design),
//   - risk-neutral critic; verification without mu-sigma or reordering.
//
// It is a core::Optimizer session like GLOVA's, which owns the engine,
// buffers, agent, verifier and checkpoint codec; this class keeps only the
// policy: random init, the dominant-corner draws and reclustering.  Its
// dominant-corner list is the one piece of state beyond the session's.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "circuits/testbench.hpp"
#include "core/optimizer_base.hpp"

namespace glova::baselines {

struct RobustAnalogConfig : core::SessionConfig {
  std::size_t random_init_samples = 20;
  std::size_t clusters = 4;             ///< dominant-corner count
  std::size_t recluster_interval = 25;  ///< iterations between corner sweeps
};

class RobustAnalogOptimizer final : public core::Optimizer {
 public:
  RobustAnalogOptimizer(circuits::TestbenchPtr testbench, RobustAnalogConfig config);

  [[nodiscard]] const char* algorithm_name() const override { return "RobustAnalog"; }

 protected:
  void do_start() override;
  bool do_step() override;
  void save_policy_state(std::ostream& os) const override;
  void load_policy_state(std::istream& is) override;

 private:
  /// Corner sweep of the incumbent -> k-means -> dominant corner per cluster.
  void recluster(std::span<const double> x01);

  RobustAnalogConfig config_;
  std::vector<std::size_t> dominant_;  ///< the corners each iteration simulates
};

}  // namespace glova::baselines
