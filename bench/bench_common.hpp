// Shared harness for the table/figure reproduction binaries.
//
// Each bench prints the paper row ("paper") next to the measured row
// ("ours") so the shape comparison is immediate.  Seeds, iteration caps and
// the evaluator backend are env-tunable (see docs/reproduce_table2.md):
//   GLOVA_BENCH_SEEDS   (default 5)   independent runs per cell
//   GLOVA_BENCH_MAXIT   (default 3000) RL-iteration cap (success-rate cap)
//   GLOVA_BENCH_BACKEND (default behavioral) evaluator backend; "spice"
//                       runs every testcase transistor-level on the MNA
//                       engine (see circuits::available_backends)
//   GLOVA_BENCH_CORNERS (default all) corner_filter: "all" or "cold_lv"
//                       (only the coldest low-voltage corner)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "core/run_spec.hpp"

namespace glova::bench {

/// Table II row labels for core::Algorithm ("Ours" for GLOVA).
using Method = core::Algorithm;

[[nodiscard]] const char* to_string(Method m);

/// Aggregated multi-seed statistics for one (method, circuit, verif) cell.
struct CellStats {
  // The paper's footnoted Table II/III columns: means over successful runs
  // only, 0 when no run succeeded.
  double mean_iterations = 0.0;
  double mean_simulations = 0.0;
  double mean_modeled_runtime = 0.0;
  double mean_wall_seconds = 0.0;
  double success_rate = 0.0;      ///< over all runs
  std::size_t runs = 0;
  // Means over every run, failed ones included, so a cell that never
  // verifies still shows what it cost.
  double all_mean_iterations = 0.0;
  double all_mean_simulations = 0.0;
  double all_mean_wall_seconds = 0.0;
  /// Runs per GlovaResult::termination ("verified", "iteration-cap", ...).
  std::map<std::string, std::size_t> terminations;
};

/// "iteration-cap=2 verified=1": the termination tally on one line.
[[nodiscard]] std::string termination_tally(const CellStats& stats);

struct BenchOptions {
  std::size_t seeds = 3;
  std::size_t max_iterations = 3000;
  /// Evaluator backend for every cell (GLOVA_BENCH_BACKEND).  Every
  /// testcase supports both backends.
  circuits::Backend backend = circuits::Backend::Behavioral;
  /// PVT corner-set restriction (GLOVA_BENCH_CORNERS), forwarded to
  /// RunSpec corner_filter.
  std::string corner_filter = "all";
  /// Ablation switches (Table III); default = full GLOVA.
  bool use_ensemble_critic = true;
  bool use_mu_sigma = true;
  bool use_reordering = true;
};

[[nodiscard]] BenchOptions options_from_env();

/// Run one cell: `seeds` runs of `method` on `testcase` under `verif`,
/// scheduled as one core::Campaign (seed sweep over the shared evaluation
/// stack; see docs/reproduce_table2.md).
[[nodiscard]] CellStats run_cell(Method method, circuits::Testcase testcase,
                                 core::VerifMethod verif, const BenchOptions& options);

/// Print a Table II-style block for one circuit: rows = metric x method,
/// columns = verification methods.  `paper` holds the published values
/// in the order [metric][method][verif] for the comparison row.
struct PaperCell {
  double iterations = 0.0;
  double simulations = 0.0;
  double norm_runtime = 0.0;
  double success = 1.0;
};

void print_table2_block(circuits::Testcase testcase,
                        const std::vector<std::vector<PaperCell>>& paper,
                        const BenchOptions& options);

}  // namespace glova::bench
