// SPICE-backend smoke: one campaign cell (GLOVA, corners-only verification,
// one seed) per Table II testcase, every simulation running netlist -> DC
// operating point -> transient -> measurements on the MNA engine.  CI runs
// this with GLOVA_BENCH_BACKEND=spice so a netlist regression on any block
// (a latch that stops deciding, a sense amp that stops resolving, a
// non-convergent reservoir) fails the pipeline within a few seconds: the
// binary exits non-zero unless every run of every testcase verifies
// (success 1.00).
//
//   GLOVA_BENCH_BACKEND=spice GLOVA_BENCH_SEEDS=1 GLOVA_BENCH_MAXIT=120 \
//     ./bench_spice_smoke
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"

int main() {
  using namespace glova;
  bench::BenchOptions opt = bench::options_from_env();
  // Smoke defaults: the backend is the point of this binary; keep the cell
  // small unless the caller asked for more.
  if (std::getenv("GLOVA_BENCH_BACKEND") == nullptr) opt.backend = circuits::Backend::Spice;
  if (std::getenv("GLOVA_BENCH_SEEDS") == nullptr) opt.seeds = 1;
  if (std::getenv("GLOVA_BENCH_MAXIT") == nullptr) opt.max_iterations = 120;

  std::printf("SPICE smoke — one %s-backend campaign cell per testcase "
              "(GLOVA, C, %zu seed(s), iteration cap %zu)\n",
              circuits::to_string(opt.backend), opt.seeds, opt.max_iterations);
  bool all_verified = true;
  for (const auto tc : circuits::all_testcases()) {
    const bench::CellStats stats =
        bench::run_cell(bench::Method::Glova, tc, core::VerifMethod::C, opt);
    // All-run means first: a cell that never verifies must not print zeros.
    // The success-only means are the paper's footnoted columns.
    std::printf("  %-8s success %.2f  all runs: iterations %-7.4g simulations %-8.5g wall %.2fs"
                "  successful runs: iterations %-7.4g simulations %-8.5g wall %.2fs  [%s]\n",
                circuits::to_string(tc), stats.success_rate, stats.all_mean_iterations,
                stats.all_mean_simulations, stats.all_mean_wall_seconds, stats.mean_iterations,
                stats.mean_simulations, stats.mean_wall_seconds,
                bench::termination_tally(stats).c_str());
    if (stats.success_rate < 1.0) {  // also a cell that ran no session
      std::fprintf(stderr, "bench_spice_smoke: %s verified in %.2f of %zu run(s)\n",
                   circuits::to_string(tc), stats.success_rate, stats.runs);
      all_verified = false;
    }
  }
  return all_verified ? 0 : 1;
}
