// Pinned-seed regression table (ROADMAP ask): fixed-seed GlovaOptimizer runs
// must request exactly the recorded number of simulations, with the recorded
// cache behavior, the SPICE testbenches must reproduce the recorded circuit
// metrics, and one EKV cold-corner SPICE session per testcase must verify
// with the recorded counts.  This is the guard rail for every evaluation-
// stack change: a refactor that alters optimizer control flow, cache keys,
// or solver results shows up here before it ships.
//
// Re-recording (only when an intentional behavior change is made): build,
// then run this binary with --gtest_also_run_disabled_tests removed and
// copy the values printed by a failing expectation — or rerun the
// bench-point probe documented in README.md — into the tables below.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "circuits/registry.hpp"
#include "circuits/spice_backend.hpp"
#include "common/log.hpp"
#include "core/optimizer.hpp"
#include "core/run_spec.hpp"
#include "spice/simulator.hpp"
#include "spice/warm_start.hpp"

namespace glova {
namespace {

struct PinnedRun {
  circuits::Testcase testcase;
  core::VerifMethod method;
  std::uint64_t seed;
  std::size_t max_iterations;
  // Recorded reference values (git main, seed toolchain).
  std::uint64_t n_simulations;
  std::uint64_t n_executed;
  std::uint64_t n_cache_hits;
  std::size_t rl_iterations;
  const char* termination;
};

// The paper's "# Simulation" column semantics: requested = executed + hits.
constexpr PinnedRun kPinnedRuns[] = {
    {circuits::Testcase::Sal, core::VerifMethod::C, 1, 200, 100, 99, 1, 15, "verified"},
    {circuits::Testcase::Sal, core::VerifMethod::C_MCGL, 7, 60, 6199, 6199, 0, 39, "verified"},
    // OCSA and FIA rows re-recorded when the behavioral gm estimates moved
    // from the 2*I/max(Vov, 1e-4) strong-inversion identity to the analytic
    // pdk::ekv_gm derivative (the optimizer sees different metric surfaces,
    // so its fixed-seed trajectory legitimately changes).
    {circuits::Testcase::DramOcsa, core::VerifMethod::C_MCL, 3, 60, 3151, 3151, 0, 2, "verified"},
    {circuits::Testcase::Fia, core::VerifMethod::C, 5, 120, 96, 95, 1, 4, "verified"},
};

TEST(PinnedSeedRegression, SimulationCountsMatchReferenceTable) {
  set_log_level(LogLevel::Warn);
  for (const PinnedRun& run : kPinnedRuns) {
    core::GlovaConfig cfg;
    cfg.method = run.method;
    cfg.seed = run.seed;
    cfg.max_iterations = run.max_iterations;
    core::GlovaOptimizer opt(circuits::make_testbench(run.testcase), cfg);
    const core::GlovaResult res = opt.run();
    const std::string label = std::string(circuits::to_string(run.testcase)) + "/" +
                              core::to_string(run.method) + "/seed" +
                              std::to_string(run.seed);
    EXPECT_EQ(res.n_simulations, run.n_simulations) << label;
    EXPECT_EQ(res.n_simulations_executed, run.n_executed) << label;
    EXPECT_EQ(res.n_cache_hits, run.n_cache_hits) << label;
    EXPECT_EQ(res.rl_iterations, run.rl_iterations) << label;
    EXPECT_EQ(res.termination, run.termination) << label;
  }
}

// SPICE metrics at fixed sizing points, one row per testcase netlist.  The
// SAL row was recorded on git main before the stamp-plan/warm-start
// rewrite; the FIA and OCSA+SH rows were recorded when their netlists
// landed (ISSUE 5).  The compiled-plan assembler, the fused LU kernel, the
// pinned-source absorption, and the netlist construction itself must
// reproduce them to within Newton's voltage tolerance (measured deviation:
// ~2e-13 relative).  Warm start is disabled so the check is independent of
// cache state.
//
// Re-recording (only for an intentional solver/netlist change): run this
// binary, copy the "actual" values from the failing EXPECT_NEAR output —
// or print them at max_digits10 with a one-off probe against
// circuits::make_testbench(tc, Backend::Spice) — into kSpiceBaselines, and
// note the change in bench/BENCH_spice.json's context.note.
struct SpiceBaseline {
  circuits::Testcase testcase;
  std::vector<double> x01;
  std::vector<double> metrics;
};

const SpiceBaseline kSpiceBaselines[] = {
    {circuits::Testcase::Sal,
     {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0.01},
     {
         // Re-recorded when SalConditions::input_cm_frac returned to the
         // paper's mid-rail testbench (the 0.7*vdd bias was a Level-1
         // cutoff crutch; see SalConditions).
         1.07752996735812805e-05,  // power [W]
         5.11384451347077711e-10,  // set delay [s]
         1.11129848615213381e-10,  // reset delay [s]
         9.12987598746986783e-05,  // input noise [V]
     }},
    {circuits::Testcase::Fia,
     {0.05, 0.25, 0.5, 0.3, 0.003, 0.001},
     {
         4.80820605355794003e-14,  // energy per conversion [J]
         // Noise re-recorded with the behavioral gm estimate moved to the
         // analytic pdk::ekv_gm derivative (thermal + latch-referral terms
         // shift slightly at this bias).
         8.04802882424353610e-04,  // input-referred noise [V]
     }},
    {circuits::Testcase::DramOcsa,
     {1.0, 1.0, 1.0, 0.0, 0.0, 0.3, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0},
     {
         1.13709493220082503e-01,  // dVD0 [V]
         1.42651524570952482e-01,  // dVD1 [V]
         1.02392190707012904e-14,  // energy per bit [J]
     }},
};

TEST(PinnedSeedRegression, SpiceMetricsMatchRecordedBaselines) {
  // Evaluate everything first and restore the global warm-start switch
  // before any assertion can return early, so a failing row cannot leave
  // warm start disabled for the rest of the binary.
  const bool was_enabled = spice::dc_warm_start_enabled();
  spice::set_dc_warm_start_enabled(false);
  std::vector<std::vector<double>> measured;
  for (const SpiceBaseline& row : kSpiceBaselines) {
    const auto tb = circuits::make_testbench(row.testcase, circuits::Backend::Spice);
    const auto x = tb->sizing().denormalize(row.x01);
    measured.push_back(tb->evaluate(x, pdk::typical_corner(), {}));
  }
  spice::set_dc_warm_start_enabled(was_enabled);

  for (std::size_t ri = 0; ri < std::size(kSpiceBaselines); ++ri) {
    const SpiceBaseline& row = kSpiceBaselines[ri];
    const auto& m = measured[ri];
    ASSERT_EQ(m.size(), row.metrics.size()) << circuits::to_string(row.testcase);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_NEAR(m[i], row.metrics[i], std::abs(row.metrics[i]) * 1e-6)
          << circuits::to_string(row.testcase) << " metric " << i;
    }
  }
}

// One GLOVA session per SPICE testcase at the coldest low-voltage corner
// (SS, 0.8 V, -40 C) under the EKV channel model: method C, seed 1, a
// 120-iteration cap, one simulation in flight.  Every session must verify
// with exactly the recorded iteration and requested-simulation counts.
struct ColdCornerRun {
  circuits::Testcase testcase;
  std::size_t rl_iterations;
  std::uint64_t n_simulations;
};

constexpr ColdCornerRun kColdCornerRuns[] = {
    {circuits::Testcase::Sal, 21, 46},
    {circuits::Testcase::Fia, 8, 27},
    {circuits::Testcase::DramOcsa, 1, 24},
};

/// The engine constructor writes its knobs into process-wide SPICE switches;
/// put the defaults back on exit so later tests do not run under ekv.
struct SpiceDefaultsGuard {
  ~SpiceDefaultsGuard() {
    spice::set_mos_model_default(spice::MosModel::kLevel1);
    spice::set_dc_warm_start_enabled(true);
    spice::set_adaptive_timestep_default(false);
    spice::set_recovery_default(false);
    spice::set_deadline_default(0);
  }
};

TEST(PinnedSeedRegression, EkvColdCornerSessionsVerify) {
  set_log_level(LogLevel::Warn);
  const SpiceDefaultsGuard restore;
  for (const ColdCornerRun& run : kColdCornerRuns) {
    core::RunSpec spec;
    spec.testcase = run.testcase;
    spec.backend = circuits::Backend::Spice;
    spec.method = core::VerifMethod::C;
    spec.seed = 1;
    spec.max_iterations = 120;
    spec.corner_filter = "cold_lv";
    spec.engine.mos_model = "ekv";
    spec.engine.parallelism = 1;
    const core::GlovaResult res = core::make_optimizer(spec)->run();
    const char* label = circuits::to_string(run.testcase);
    EXPECT_EQ(res.termination, "verified") << label;
    EXPECT_EQ(res.rl_iterations, run.rl_iterations) << label;
    EXPECT_EQ(res.n_simulations, run.n_simulations) << label;
  }
}

}  // namespace
}  // namespace glova
