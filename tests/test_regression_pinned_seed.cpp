// Pinned-seed regression table (ROADMAP ask): fixed-seed GlovaOptimizer runs
// must request exactly the recorded number of simulations, with the recorded
// cache behavior, the SPICE testbenches must reproduce the recorded circuit
// metrics (LTE-adaptive grid, EKV model), one SPICE session per testcase
// must verify with the recorded counts on default knobs and at the cold
// corner, and a spec written before the adaptive/EKV defaults must fail to
// load with a docs pointer instead of running on other numerics.  This is
// the guard rail for every evaluation-stack change: a refactor that alters
// optimizer control flow, cache keys, or solver results shows up here
// before it ships.
//
// Re-recording (only when an intentional behavior change is made): build,
// then run this binary with --gtest_also_run_disabled_tests removed and
// copy the values printed by a failing expectation — or rerun the
// bench-point probe documented in README.md — into the tables below.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "circuits/registry.hpp"
#include "circuits/spice_backend.hpp"
#include "common/log.hpp"
#include "core/campaign.hpp"
#include "core/optimizer.hpp"
#include "core/run_spec.hpp"
#include "spice/simulator.hpp"

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
// These sessions run on default engines, which keep no memo since the memo
// moved behind cache_path: the SAL and FIA rows, which each repeated one
// point, were re-recorded from one hit to one more executed simulation, with
// n_simulations, iterations and termination unchanged.
constexpr PinnedRun kPinnedRuns[] = {
    {circuits::Testcase::Sal, core::VerifMethod::C, 1, 200, 100, 100, 0, 15, "verified"},
    {circuits::Testcase::Sal, core::VerifMethod::C_MCGL, 7, 60, 6199, 6199, 0, 39, "verified"},
    // OCSA and FIA rows re-recorded when the behavioral gm estimates moved
    // from the 2*I/max(Vov, 1e-4) strong-inversion identity to the analytic
    // pdk::ekv_gm derivative (the optimizer sees different metric surfaces,
    // so its fixed-seed trajectory legitimately changes).
    {circuits::Testcase::DramOcsa, core::VerifMethod::C_MCL, 3, 60, 3151, 3151, 0, 2, "verified"},
    {circuits::Testcase::Fia, core::VerifMethod::C, 5, 120, 96, 96, 0, 4, "verified"},
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

/// The behavioral session the baseline rows and the state digests below run:
/// method C, seed 1, a 120-iteration cap, default knobs otherwise.
core::RunSpec behavioral_session(core::Algorithm algorithm, circuits::Testcase testcase) {
  core::RunSpec spec;
  spec.testcase = testcase;
  spec.algorithm = algorithm;
  spec.method = core::VerifMethod::C;
  spec.seed = 1;
  spec.max_iterations = 120;
  return spec;
}

struct BaselineRun {
  core::Algorithm algorithm;
  circuits::Testcase testcase;
  std::uint64_t n_simulations;
  std::uint64_t n_executed;
  std::size_t rl_iterations;
  const char* termination;
};

// Table II's two baselines.  Recorded before the three algorithms' copies of
// one session (state, checkpoint codec, verify tail) were folded into
// core::Optimizer, which had to reproduce them exactly.
constexpr BaselineRun kBaselineRuns[] = {
    {core::Algorithm::PvtSizing, circuits::Testcase::Sal, 2480, 2480, 81, "verified"},
    {core::Algorithm::PvtSizing, circuits::Testcase::Fia, 2195, 2195, 71, "verified"},
    {core::Algorithm::RobustAnalog, circuits::Testcase::Sal, 570, 570, 100, "verified"},
    {core::Algorithm::RobustAnalog, circuits::Testcase::Fia, 550, 550, 95, "verified"},
};

TEST(PinnedSeedRegression, BaselineCountsMatchReferenceTable) {
  set_log_level(LogLevel::Warn);
  for (const BaselineRun& run : kBaselineRuns) {
    const core::GlovaResult res =
        core::make_optimizer(behavioral_session(run.algorithm, run.testcase))->run();
    const std::string label = std::string(core::to_string(run.algorithm)) + "/" +
                              circuits::to_string(run.testcase);
    EXPECT_EQ(res.n_simulations, run.n_simulations) << label;
    EXPECT_EQ(res.n_simulations_executed, run.n_executed) << label;
    EXPECT_EQ(res.rl_iterations, run.rl_iterations) << label;
    EXPECT_EQ(res.termination, run.termination) << label;
  }
}

/// FNV-1a over the bytes of a text.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The `optimizer-state v2` frame a SAL session writes after three steps,
/// with the wall-seconds field of its `result` line (the one timing field)
/// masked as `-`.
std::string masked_state_frame(core::Algorithm algorithm) {
  const auto session = core::make_optimizer(behavioral_session(algorithm, circuits::Testcase::Sal));
  for (int k = 0; k < 3; ++k) session->step();
  std::ostringstream os;
  session->save_state(os);
  std::string frame = os.str();
  // result <success> <iterations> <sims> <executed> <hits> <turbo> <wall> <modeled>
  const std::size_t line = frame.find("\nresult ") + 1;
  std::size_t wall = line;
  for (int field = 0; field < 7; ++field) wall = frame.find(' ', wall) + 1;
  frame.replace(wall, frame.find(' ', wall) - wall, "-");
  return frame;
}

struct StateDigest {
  core::Algorithm algorithm;
  std::uint64_t fnv1a;
};

// Recorded with the baseline rows above: every byte of the frame but the
// wall time (RNG streams, buffers, agent weights, engine counters) is pinned.
constexpr StateDigest kStateDigests[] = {
    {core::Algorithm::Glova, 0x182e8fcf5b212b0aull},
    {core::Algorithm::PvtSizing, 0x59fcbcd9dc24591eull},
    {core::Algorithm::RobustAnalog, 0xa696ed2a36806777ull},
};

TEST(PinnedSeedRegression, StateFramesMatchRecordedDigests) {
  set_log_level(LogLevel::Warn);
  for (const StateDigest& row : kStateDigests) {
    const std::string frame = masked_state_frame(row.algorithm);
    EXPECT_EQ(fnv1a(frame), row.fnv1a)
        << core::to_string(row.algorithm) << " frame:\n" << frame.substr(0, 400);
  }
}

// SPICE metrics at fixed sizing points, one row per testcase netlist, on
// the default options (LTE-adaptive grid, EKV model).  The compiled-plan
// assembler, the fused LU kernel, the pinned-source absorption, and the
// netlist construction itself must reproduce them to within Newton's
// voltage tolerance.  Warm start is disabled so the check is independent of
// cache state.
//
// Re-recording (only for an intentional solver/netlist change): run this
// binary, copy the "actual" values from the failing EXPECT_NEAR output —
// or print them at max_digits10 with a one-off probe against
// circuits::make_testbench(tc, Backend::Spice), under the context the test
// below installs — into the table, and note the change in
// bench/BENCH_spice.json's context.note.
struct SpiceBaseline {
  circuits::Testcase testcase;
  std::vector<double> x01;
  std::vector<double> metrics;
};

const std::vector<double> kSalPoint = {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2,
                                       0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0.01};
const std::vector<double> kFiaPoint = {0.05, 0.25, 0.5, 0.3, 0.003, 0.001};
const std::vector<double> kOcsaPoint = {1.0, 1.0, 1.0, 0.0, 0.0, 0.3,
                                        1.0, 1.0, 1.0, 0.0, 1.0, 1.0};

// Recorded when the LTE-adaptive timestep and the EKV model became the
// SimulatorOptions / EngineConfig defaults.
const std::vector<SpiceBaseline> kDefaultSpiceBaselines = {
    {circuits::Testcase::Sal,
     kSalPoint,
     {
         1.24584533669704082e-05,  // power [W]
         4.77590948467940939e-10,  // set delay [s]
         1.11941900734056323e-10,  // reset delay [s]
         9.12987598746986783e-05,  // input noise [V]
     }},
    {circuits::Testcase::Fia,
     kFiaPoint,
     {
         5.12901692928281621e-14,  // energy per conversion [J]
         1.20291276188200409e-03,  // input-referred noise [V]
     }},
    {circuits::Testcase::DramOcsa,
     kOcsaPoint,
     {
         1.28391952279183624e-01,  // dVD0 [V]
         1.31514614706298660e-01,  // dVD1 [V]
         1.13703198788420537e-14,  // energy per bit [J]
     }},
};

TEST(PinnedSeedRegression, DefaultSpiceMetricsMatchRecordedBaselines) {
  spice::EvaluationContext context;
  context.dc_warm_start = false;
  const spice::ScopedContext scope(context);
  for (const SpiceBaseline& row : kDefaultSpiceBaselines) {
    const auto tb = circuits::make_testbench(row.testcase, circuits::Backend::Spice);
    const auto x = tb->sizing().denormalize(row.x01);
    const auto m = tb->evaluate(x, pdk::typical_corner(), {});
    ASSERT_EQ(m.size(), row.metrics.size()) << circuits::to_string(row.testcase);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_NEAR(m[i], row.metrics[i], std::abs(row.metrics[i]) * 1e-6)
          << circuits::to_string(row.testcase) << " metric " << i;
    }
  }
}

/// The GLOVA session every SPICE outcome row below runs: method C, seed 1,
/// a 120-iteration cap, one simulation in flight, default knobs otherwise.
core::RunSpec spice_session(circuits::Testcase testcase) {
  core::RunSpec spec;
  spec.testcase = testcase;
  spec.backend = circuits::Backend::Spice;
  spec.method = core::VerifMethod::C;
  spec.seed = 1;
  spec.max_iterations = 120;
  spec.engine.parallelism = 1;
  return spec;
}

struct SessionOutcome {
  circuits::Testcase testcase;
  const char* termination;
  std::size_t rl_iterations;
  std::uint64_t n_simulations;
};

void expect_outcome(const core::GlovaResult& res, const SessionOutcome& expected) {
  const char* label = circuits::to_string(expected.testcase);
  EXPECT_EQ(res.termination, expected.termination) << label;
  EXPECT_EQ(res.rl_iterations, expected.rl_iterations) << label;
  EXPECT_EQ(res.n_simulations, expected.n_simulations) << label;
}

/// One campaign entry as canonical text: its spec line and its result, with
/// wall time (the one timing-dependent field) zeroed.
std::string canonical(core::CampaignEntry entry) {
  entry.result.wall_seconds = 0.0;
  std::ostringstream os;
  os << entry.spec.to_string() << '\n';
  core::write_glova_result(os, entry.result);
  return os.str();
}

// Default knobs (adaptive timestep, EKV): every SPICE testcase verifies.
constexpr SessionOutcome kDefaultSpiceSessions[] = {
    {circuits::Testcase::Sal, "verified", 21, 104},
    {circuits::Testcase::Fia, "verified", 9, 86},
    {circuits::Testcase::DramOcsa, "verified", 1, 82},
};

TEST(PinnedSeedRegression, DefaultSpiceSessionsVerify) {
  set_log_level(LogLevel::Warn);
  for (const SessionOutcome& run : kDefaultSpiceSessions) {
    expect_outcome(core::make_optimizer(spice_session(run.testcase))->run(), run);
  }
}

// The canonical spec text the release before the adaptive/EKV defaults wrote
// for spice_session(Sal): checkpoints and glova-serve spools carry it
// verbatim, so it spells out the fixed grid and the Level-1 model.
constexpr const char* kPreDefaultSalSpec =
    "testcase=SAL backend=spice algorithm=glova method=C corner_filter=all seed=1 "
    "max_iterations=120 n_opt_samples=3 use_ensemble_critic=1 use_mu_sigma=1 use_reordering=1 "
    "max_simulations=0 budget_iterations=0 max_wall_seconds=0 cost_per_simulation=1 "
    "cost_per_rl_iteration=2 parallelism=1 min_parallel_batch=8 cache_capacity=4096 "
    "cache_quantum=1.0000000000000001e-15 dc_warm_start=1 adaptive_timestep=0 recovery=0 "
    "mos_model=level1 max_eval_retries=0 eval_deadline_steps=0 degrade_to_behavioral=0 "
    "cache_path= progress_log=0";

void expect_retired_keys_error(const std::invalid_argument& e) {
  EXPECT_NE(std::string(e.what()).find("docs/run_spec.md#retired-keys"), std::string::npos)
      << e.what();
}

// Both numerics that spec names are gone.  Running it on the defaults would
// resume a half-run session on other numerics, so it fails to load with a
// docs pointer, as text and inside a campaign checkpoint.  Minus those two
// tokens it loads, as text and inside a checkpoint: the six keys retired
// later sit at their saved values, and it re-saves as today's
// spice_session(Sal), which is the same text without them.
TEST(PinnedSeedRegression, SpecWrittenBeforeTheAdaptiveEkvDefaultsFailsWithADocsPointer) {
  set_log_level(LogLevel::Warn);
  try {
    (void)core::RunSpec::from_string(kPreDefaultSalSpec);
    ADD_FAILURE() << "the pre-default spec loaded";
  } catch (const std::invalid_argument& e) {
    expect_retired_keys_error(e);
  }

  const std::string current = spice_session(circuits::Testcase::Sal).to_string();
  std::string loadable = kPreDefaultSalSpec;
  for (const std::string token : {" adaptive_timestep=0", " mos_model=level1"}) {
    loadable.erase(loadable.find(token), token.size());
  }
  EXPECT_EQ(core::RunSpec::from_string(loadable).to_string(), current);
  std::string stripped = loadable;
  for (const std::string token :
       {" min_parallel_batch=8", " cache_quantum=1.0000000000000001e-15", " recovery=0",
        " max_eval_retries=0", " eval_deadline_steps=0", " degrade_to_behavioral=0"}) {
    stripped.erase(stripped.find(token), token.size());
  }
  ASSERT_EQ(stripped, current);

  core::Campaign campaign(std::vector<core::RunSpec>{spice_session(circuits::Testcase::Sal)});
  std::ostringstream saved;
  campaign.save(saved);
  const auto checkpoint_with = [&](const std::string& spec) {
    std::string checkpoint = saved.str();
    const std::string spec_line = "spec " + current + "\n";
    const std::size_t at = checkpoint.find(spec_line);
    EXPECT_NE(at, std::string::npos) << checkpoint;
    return checkpoint.replace(at, spec_line.size(), "spec " + spec + "\n");
  };
  std::istringstream old_checkpoint(checkpoint_with(kPreDefaultSalSpec));
  try {
    (void)core::Campaign::load(old_checkpoint);
    ADD_FAILURE() << "a checkpoint carrying the pre-default spec loaded";
  } catch (const std::invalid_argument& e) {
    expect_retired_keys_error(e);
  }
  std::istringstream loadable_checkpoint(checkpoint_with(loadable));
  std::ostringstream resaved;
  core::Campaign::load(loadable_checkpoint).save(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
}

// A campaign steps its sessions turn by turn on one thread.  A session on
// the default numerics and one with warm start off must each keep the
// result it gets alone, in either order: the second neither reads nor
// stores the thread's DC cache, so it cannot seed the first's solves, and
// neither counts the other's SPICE activity.
TEST(PinnedSeedRegression, MixedNumericsCampaignKeepsEachSessionsSoloResult) {
  set_log_level(LogLevel::Warn);
  const core::RunSpec current = spice_session(circuits::Testcase::Sal);
  core::RunSpec cold = current;
  cold.engine.dc_warm_start = false;
  const auto solo = [](const core::RunSpec& spec) {
    core::Campaign alone(std::vector<core::RunSpec>{spec});
    return canonical(alone.run().entries.at(0));
  };
  const std::string current_alone = solo(current);
  const std::string cold_alone = solo(cold);
  // The solo results differ beyond the spec line (the warm-start counters at
  // least), so a leak would show.
  ASSERT_NE(current_alone.substr(current_alone.find('\n')),
            cold_alone.substr(cold_alone.find('\n')));

  for (const bool current_first : {true, false}) {
    core::Campaign mixed(current_first ? std::vector<core::RunSpec>{current, cold}
                                       : std::vector<core::RunSpec>{cold, current});
    const core::CampaignResult& table = mixed.run();
    ASSERT_EQ(table.entries.size(), 2u);
    const core::CampaignEntry& c = table.entries[current_first ? 0 : 1];
    const core::CampaignEntry& p = table.entries[current_first ? 1 : 0];
    // Cold DC solves move the metrics only within vtol: same outcome.
    expect_outcome(c.result, {circuits::Testcase::Sal, "verified", 21, 104});
    expect_outcome(p.result, {circuits::Testcase::Sal, "verified", 21, 104});
    EXPECT_EQ(p.result.engine_stats.dc_warm_hits, 0u);
    EXPECT_EQ(p.result.engine_stats.dc_warm_misses, 0u);
    EXPECT_EQ(p.result.engine_stats.dc_warm_stores, 0u);
    EXPECT_EQ(canonical(c), current_alone) << "current_first=" << current_first;
    EXPECT_EQ(canonical(p), cold_alone) << "current_first=" << current_first;
  }
}

// One GLOVA session per SPICE testcase at the coldest low-voltage corner
// (SS, 0.8 V, -40 C), which the EKV channel model evaluates.  Every session must verify
// with exactly the recorded iteration and requested-simulation counts.
constexpr SessionOutcome kColdCornerRuns[] = {
    {circuits::Testcase::Sal, "verified", 21, 46},
    {circuits::Testcase::Fia, "verified", 8, 27},
    {circuits::Testcase::DramOcsa, "verified", 1, 24},
};

TEST(PinnedSeedRegression, EkvColdCornerSessionsVerify) {
  set_log_level(LogLevel::Warn);
  for (const SessionOutcome& run : kColdCornerRuns) {
    core::RunSpec spec = spice_session(run.testcase);
    spec.corner_filter = "cold_lv";
    expect_outcome(core::make_optimizer(spec)->run(), run);
  }
}

}  // namespace
}  // namespace glova
