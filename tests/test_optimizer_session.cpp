// Tests for the step-driven session API: run()/step() parity for all three
// optimizers, mid-run cancellation, budget enforcement, RunSpec validation
// and round-tripping, the make_optimizer factory, and observers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "baselines/pvtsizing.hpp"
#include "baselines/robustanalog.hpp"
#include "circuits/registry.hpp"
#include "common/log.hpp"
#include "core/optimizer.hpp"
#include "core/run_spec.hpp"

namespace glova {
namespace {

/// Every deterministic field of two results must match bit-for-bit
/// (wall_seconds is timing and is deliberately excluded).
void expect_identical_results(const core::GlovaResult& a, const core::GlovaResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.rl_iterations, b.rl_iterations);
  EXPECT_EQ(a.n_simulations, b.n_simulations);
  EXPECT_EQ(a.n_simulations_executed, b.n_simulations_executed);
  EXPECT_EQ(a.n_cache_hits, b.n_cache_hits);
  EXPECT_EQ(a.engine_stats.requested, b.engine_stats.requested);
  EXPECT_EQ(a.engine_stats.executed, b.engine_stats.executed);
  EXPECT_EQ(a.engine_stats.cache_hits, b.engine_stats.cache_hits);
  EXPECT_EQ(a.turbo_evaluations, b.turbo_evaluations);
  EXPECT_EQ(a.x01_final, b.x01_final);
  EXPECT_EQ(a.x_phys_final, b.x_phys_final);
  EXPECT_EQ(a.termination, b.termination);
  EXPECT_DOUBLE_EQ(a.modeled_runtime, b.modeled_runtime);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].iteration, b.trace[i].iteration);
    EXPECT_DOUBLE_EQ(a.trace[i].reward_worst, b.trace[i].reward_worst);
    EXPECT_DOUBLE_EQ(a.trace[i].critic_mean, b.trace[i].critic_mean);
    EXPECT_DOUBLE_EQ(a.trace[i].critic_bound, b.trace[i].critic_bound);
    EXPECT_EQ(a.trace[i].mu_sigma_pass, b.trace[i].mu_sigma_pass);
    EXPECT_EQ(a.trace[i].attempted_verification, b.trace[i].attempted_verification);
    EXPECT_EQ(a.trace[i].sims_total, b.trace[i].sims_total);
  }
}

core::GlovaResult drive_manually(core::Optimizer& opt) {
  while (!opt.done()) opt.step();
  return opt.result();
}

TEST(StepParity, GlovaStepLoopMatchesRun) {
  set_log_level(LogLevel::Warn);
  core::GlovaConfig cfg;
  cfg.method = core::VerifMethod::C;
  cfg.seed = 1;
  cfg.max_iterations = 200;
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  const auto via_run = core::GlovaOptimizer(tb, cfg).run();
  core::GlovaOptimizer stepped(tb, cfg);
  const auto via_steps = drive_manually(stepped);
  EXPECT_TRUE(via_run.success);
  expect_identical_results(via_run, via_steps);
}

TEST(StepParity, PvtSizingStepLoopMatchesRun) {
  set_log_level(LogLevel::Warn);
  baselines::PvtSizingConfig cfg;
  cfg.method = core::VerifMethod::C;
  cfg.seed = 1;
  cfg.max_iterations = 200;
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  const auto via_run = baselines::PvtSizingOptimizer(tb, cfg).run();
  baselines::PvtSizingOptimizer stepped(tb, cfg);
  const auto via_steps = drive_manually(stepped);
  expect_identical_results(via_run, via_steps);
}

TEST(StepParity, RobustAnalogStepLoopMatchesRun) {
  set_log_level(LogLevel::Warn);
  baselines::RobustAnalogConfig cfg;
  cfg.method = core::VerifMethod::C;
  cfg.seed = 1;
  cfg.max_iterations = 200;
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  const auto via_run = baselines::RobustAnalogOptimizer(tb, cfg).run();
  baselines::RobustAnalogOptimizer stepped(tb, cfg);
  const auto via_steps = drive_manually(stepped);
  expect_identical_results(via_run, via_steps);
}

TEST(Session, ResultThrowsWhileRunning) {
  set_log_level(LogLevel::Warn);
  core::GlovaConfig cfg;
  cfg.seed = 1;
  core::GlovaOptimizer opt(circuits::make_testbench(circuits::Testcase::Sal), cfg);
  EXPECT_FALSE(opt.done());
  EXPECT_THROW((void)opt.result(), std::logic_error);
  opt.step();
  EXPECT_THROW((void)opt.result(), std::logic_error);
  opt.cancel();
  (void)opt.result();  // finished now
}

TEST(Session, MidRunCancelProducesWellFormedPartialResult) {
  set_log_level(LogLevel::Warn);
  core::GlovaConfig cfg;
  cfg.method = core::VerifMethod::C;
  cfg.seed = 1;
  cfg.max_iterations = 200;  // this seed verifies at iteration 15 when free
  core::GlovaOptimizer opt(circuits::make_testbench(circuits::Testcase::Sal), cfg);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(opt.step());
  EXPECT_FALSE(opt.done());
  opt.cancel("operator-stop");
  EXPECT_TRUE(opt.done());
  EXPECT_FALSE(opt.step());  // no further work

  const core::GlovaResult& res = opt.result();
  EXPECT_EQ(res.termination, "operator-stop");
  EXPECT_FALSE(res.success);
  EXPECT_EQ(res.rl_iterations, 5u);
  EXPECT_EQ(res.trace.size(), 5u);
  EXPECT_GT(res.n_simulations, 0u);
  EXPECT_EQ(res.n_simulations, res.n_simulations_executed + res.n_cache_hits);
  EXPECT_GT(res.modeled_runtime, 0.0);
}

/// Testbench whose evaluations start throwing after a fuse burns, to probe
/// session behavior when a step fails mid-flight.
class FailingBench final : public circuits::Testbench {
 public:
  explicit FailingBench(int evaluations_until_failure) : fuse_(evaluations_until_failure) {
    sizing_.names = {"x0"};
    sizing_.lower = {0.0};
    sizing_.upper = {1.0};
    performance_.metrics = {
        circuits::MetricSpec{"m", "u", 1.0, 1.0, circuits::Sense::MinimizeBelow}};
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const circuits::SizingSpec& sizing() const override { return sizing_; }
  [[nodiscard]] const circuits::PerformanceSpec& performance() const override {
    return performance_;
  }
  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double>,
                                                    bool) const override {
    return {};
  }
  [[nodiscard]] std::vector<double> evaluate(std::span<const double>, const pdk::PvtCorner&,
                                             std::span<const double>) const override {
    if (fuse_.fetch_sub(1) <= 0) throw std::runtime_error("simulator crashed");
    return {2.0};  // always failing the spec keeps the session running
  }

 private:
  std::string name_ = "failing-bench";
  circuits::SizingSpec sizing_;
  circuits::PerformanceSpec performance_;
  mutable std::atomic<int> fuse_;  // evaluations run concurrently
};

TEST(Session, ThrowingStepStillAllowsCancelAndPartialResult) {
  set_log_level(LogLevel::Warn);
  core::RunSpec spec;
  spec.engine.cache_capacity = 0;  // every request reaches the bench
  spec.engine.parallelism = 1;     // deterministic fuse burn point
  const auto bench = std::make_shared<FailingBench>(400);
  const auto opt = core::make_optimizer(spec, bench);
  EXPECT_THROW(
      {
        while (!opt->done()) opt->step();
      },
      std::runtime_error);
  EXPECT_FALSE(opt->done());
  opt->cancel("simulator-error");  // between steps: must finalize immediately
  EXPECT_TRUE(opt->done());
  EXPECT_EQ(opt->result().termination, "simulator-error");
  EXPECT_GT(opt->result().n_simulations, 0u);
}

TEST(Session, CancelBeforeFirstStep) {
  core::GlovaConfig cfg;
  core::GlovaOptimizer opt(circuits::make_testbench(circuits::Testcase::Sal), cfg);
  opt.cancel();
  EXPECT_TRUE(opt.done());
  const core::GlovaResult& res = opt.result();
  EXPECT_EQ(res.termination, "cancelled");
  EXPECT_EQ(res.n_simulations, 0u);
  EXPECT_EQ(res.rl_iterations, 0u);
}

TEST(Session, MidRunCancelWorksForBaselines) {
  set_log_level(LogLevel::Warn);
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  baselines::PvtSizingConfig pvt_cfg;
  pvt_cfg.seed = 1;
  baselines::PvtSizingOptimizer pvt(tb, pvt_cfg);
  pvt.step();
  pvt.cancel("shutdown");
  EXPECT_EQ(pvt.result().termination, "shutdown");
  EXPECT_EQ(pvt.result().rl_iterations, 1u);

  baselines::RobustAnalogConfig ra_cfg;
  ra_cfg.seed = 1;
  baselines::RobustAnalogOptimizer ra(tb, ra_cfg);
  ra.step();
  ra.cancel("shutdown");
  EXPECT_EQ(ra.result().termination, "shutdown");
  EXPECT_EQ(ra.result().rl_iterations, 1u);
}

TEST(Session, SimulationBudgetStopsWithinOneIteration) {
  set_log_level(LogLevel::Warn);
  core::RunSpec spec;
  spec.testcase = circuits::Testcase::Sal;
  spec.method = core::VerifMethod::C;
  spec.seed = 1;
  // The free-running seed-1 run reaches 70 requested simulations by
  // iteration 14 and verifies at 100; a cap of 65 must stop it mid-climb.
  spec.budget.max_simulations = 65;
  const auto opt = core::make_optimizer(spec);
  const auto res = opt->run();
  EXPECT_EQ(res.termination, "simulation-budget");
  EXPECT_FALSE(res.success);
  EXPECT_GE(res.n_simulations, spec.budget.max_simulations);
  // "Within one iteration of the cap": every iteration before the stopping
  // one was still under budget.
  ASSERT_GE(res.trace.size(), 1u);
  for (std::size_t i = 0; i + 1 < res.trace.size(); ++i) {
    EXPECT_LT(res.trace[i].sims_total, spec.budget.max_simulations);
  }
}

TEST(Session, IterationBudgetStopsTheSession) {
  set_log_level(LogLevel::Warn);
  core::RunSpec spec;
  spec.testcase = circuits::Testcase::Sal;
  spec.seed = 1;
  spec.budget.max_iterations = 3;
  const auto res = core::make_optimizer(spec)->run();
  EXPECT_EQ(res.termination, "iteration-budget");
  EXPECT_EQ(res.rl_iterations, 3u);
  EXPECT_EQ(res.trace.size(), 3u);
}

TEST(Session, BudgetedRunStillSucceedsWhenBudgetIsGenerous) {
  set_log_level(LogLevel::Warn);
  core::RunSpec spec;
  spec.testcase = circuits::Testcase::Sal;
  spec.seed = 1;
  spec.budget.max_simulations = 100000;
  const auto res = core::make_optimizer(spec)->run();
  EXPECT_TRUE(res.success);
  EXPECT_EQ(res.termination, "verified");
}

TEST(Factory, MatchesDirectConstruction) {
  set_log_level(LogLevel::Warn);
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  core::GlovaConfig cfg;
  cfg.method = core::VerifMethod::C;
  cfg.seed = 1;
  const auto direct = core::GlovaOptimizer(tb, cfg).run();

  core::RunSpec spec;
  spec.testcase = circuits::Testcase::Sal;
  spec.method = core::VerifMethod::C;
  spec.seed = 1;
  const auto via_factory = core::make_optimizer(spec)->run();
  expect_identical_results(direct, via_factory);
}

TEST(Factory, BuildsEveryAlgorithm) {
  for (const core::Algorithm algo : core::all_algorithms()) {
    core::RunSpec spec;
    spec.algorithm = algo;
    const auto opt = core::make_optimizer(spec);
    ASSERT_NE(opt, nullptr);
    EXPECT_FALSE(opt->done());
    EXPECT_STRNE(opt->algorithm_name(), "");
  }
}

TEST(Factory, EngineStatsSurfaceInBaselineResults) {
  set_log_level(LogLevel::Warn);
  for (const core::Algorithm algo :
       {core::Algorithm::PvtSizing, core::Algorithm::RobustAnalog}) {
    core::RunSpec spec;
    spec.algorithm = algo;
    spec.seed = 1;
    spec.budget.max_iterations = 2;  // enough to exercise the funnel
    const auto res = core::make_optimizer(spec)->run();
    EXPECT_EQ(res.engine_stats.requested, res.n_simulations);
    EXPECT_EQ(res.engine_stats.executed, res.n_simulations_executed);
    EXPECT_EQ(res.engine_stats.cache_hits, res.n_cache_hits);
    EXPECT_EQ(res.engine_stats.requested,
              res.engine_stats.executed + res.engine_stats.cache_hits);
    EXPECT_FALSE(res.trace.empty());  // baselines now emit IterationTrace too
  }
}

TEST(RunSpec, RoundTripsThroughText) {
  core::RunSpec spec;
  spec.testcase = circuits::Testcase::DramOcsa;
  spec.backend = circuits::Backend::Behavioral;
  spec.algorithm = core::Algorithm::RobustAnalog;
  spec.method = core::VerifMethod::C_MCGL;
  spec.seed = 42;
  spec.max_iterations = 77;
  spec.n_opt_samples = 5;
  spec.use_mu_sigma = false;
  spec.budget.max_simulations = 12345;
  spec.budget.max_wall_seconds = 1.5;
  spec.cost.per_simulation = 2.25;
  spec.engine.parallelism = 4;
  spec.engine.cache_capacity = 128;
  spec.engine.dc_warm_start = false;
  spec.progress_log = true;

  const std::string text = spec.to_string();
  const core::RunSpec parsed = core::RunSpec::from_string(text);
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.to_string(), text);
}

TEST(RunSpec, DefaultSpecIsValidAndRoundTrips) {
  const core::RunSpec spec;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(core::RunSpec::from_string(spec.to_string()), spec);
}

// Checkpoints and glova-serve spools written before the retired keys went
// carry them at the values that still load: the eight switches and counts
// at 0, the surrogate tuning at any value, adaptive_timestep=1 with
// mos_model=ekv (every spec written since those became the defaults), and
// the two knobs that became constants at those constants.  Re-saving drops
// exactly those tokens and is then a byte fixed point.
TEST(RunSpec, SpecWrittenWithTheRetiredKeysStillLoads) {
  const std::string saved =
      "testcase=FIA backend=behavioral algorithm=glova method=C corner_filter=all seed=7 "
      "max_iterations=3000 n_opt_samples=3 use_ensemble_critic=1 use_mu_sigma=1 "
      "use_reordering=1 max_simulations=0 budget_iterations=0 max_wall_seconds=0 "
      "cost_per_simulation=1 cost_per_rl_iteration=2 parallelism=0 min_parallel_batch=8 "
      "cache_capacity=4096 cache_quantum=1.0000000000000001e-15 dc_warm_start=1 "
      "batched_draws=0 adaptive_timestep=1 newton_bypass=0 recovery=0 mos_model=ekv "
      "spice_noise=0 max_eval_retries=0 eval_deadline_steps=0 degrade_to_behavioral=0 "
      "cache_path= surrogate=0 surrogate_keep=0.5 surrogate_warmup=64 progress_log=0";
  const core::RunSpec spec = core::RunSpec::from_string(saved);
  EXPECT_EQ(spec.testcase, circuits::Testcase::Fia);
  EXPECT_EQ(spec.seed, 7u);

  std::string expected = saved;
  for (const std::string token :
       {" min_parallel_batch=8", " cache_quantum=1.0000000000000001e-15", " batched_draws=0",
        " adaptive_timestep=1", " newton_bypass=0", " recovery=0", " mos_model=ekv",
        " spice_noise=0", " max_eval_retries=0", " eval_deadline_steps=0",
        " degrade_to_behavioral=0", " surrogate=0", " surrogate_keep=0.5",
        " surrogate_warmup=64"}) {
    expected.erase(expected.find(token), token.size());
  }
  const std::string resaved = spec.to_string();
  EXPECT_EQ(resaved, expected);
  EXPECT_EQ(core::RunSpec::from_string(resaved).to_string(), resaved);
}

TEST(RunSpec, RetiredKeysRejectOneWithADocsPointer) {
  // The switches reject 1 and the counts anything but 0; the timestep and
  // channel-model keys reject the fixed grid and the Level-1 model that
  // every spec written before the adaptive/EKV defaults carries; the two
  // knobs that became constants reject any other value.
  for (const char* text :
       {"batched_draws=1", "newton_bypass=1", "spice_noise=1", "surrogate=1", "recovery=1",
        "degrade_to_behavioral=on", "max_eval_retries=2", "eval_deadline_steps=775",
        "adaptive_timestep=0", "adaptive_timestep=off", "mos_model=level1",
        "min_parallel_batch=2", "cache_quantum=1e-9"}) {
    try {
      (void)core::RunSpec::from_string(text);
      FAIL() << "expected std::invalid_argument for " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("docs/run_spec.md#retired-keys"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(core::RunSpec::from_string("batched_draws=0 newton_bypass=off"), core::RunSpec{});
  EXPECT_EQ(core::RunSpec::from_string("spice_noise=0 surrogate=off"), core::RunSpec{});
  EXPECT_EQ(core::RunSpec::from_string("adaptive_timestep=1 mos_model=ekv"), core::RunSpec{});
  EXPECT_EQ(core::RunSpec::from_string("recovery=0 degrade_to_behavioral=off max_eval_retries=0 "
                                       "eval_deadline_steps=0"),
            core::RunSpec{});
  EXPECT_EQ(core::RunSpec::from_string("min_parallel_batch=8 cache_quantum=1e-15"),
            core::RunSpec{});
  // A value that never named a model is a plain grammar error, as before.
  try {
    (void)core::RunSpec::from_string("mos_model=foo");
    FAIL() << "expected std::invalid_argument for mos_model=foo";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(see docs/run_spec.md)"), std::string::npos) << what;
    EXPECT_EQ(what.find("retired-keys"), std::string::npos) << what;
  }
  for (const char* text : {"adaptive_timestep=maybe", "max_eval_retries=-1",
                           "cache_quantum=tiny"}) {
    try {
      (void)core::RunSpec::from_string(text);
      ADD_FAILURE() << "expected std::invalid_argument for " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).find("retired-keys"), std::string::npos) << e.what();
    }
  }
  // The surrogate's tuning keys only acted under surrogate=1: any well-typed
  // value loads and is ignored, a malformed one is still an error.
  EXPECT_EQ(core::RunSpec::from_string("surrogate_keep=0.9 surrogate_warmup=8"), core::RunSpec{});
  EXPECT_THROW((void)core::RunSpec::from_string("surrogate_keep=half"), std::invalid_argument);
  EXPECT_THROW((void)core::RunSpec::from_string("surrogate_warmup=-1"), std::invalid_argument);
}

TEST(RunSpec, FromStringRejectsGarbage) {
  EXPECT_THROW((void)core::RunSpec::from_string("testcase=XYZ"), std::invalid_argument);
  EXPECT_THROW((void)core::RunSpec::from_string("algorithm=sgd"), std::invalid_argument);
  EXPECT_THROW((void)core::RunSpec::from_string("seed=abc"), std::invalid_argument);
  EXPECT_THROW((void)core::RunSpec::from_string("no_such_key=1"), std::invalid_argument);
  EXPECT_THROW((void)core::RunSpec::from_string("just-a-token"), std::invalid_argument);
}

TEST(RunSpec, ValidateAcceptsEveryRegistryCombination) {
  // Since ISSUE 5 every (testcase, backend) pair has a registered
  // testbench, so validate() must accept the full matrix — the capability
  // tables (circuits::is_available) and validation stay in lockstep.
  for (const auto tc : circuits::all_testcases()) {
    for (const auto backend : circuits::available_backends(tc)) {
      core::RunSpec spec;
      spec.testcase = tc;
      spec.backend = backend;
      EXPECT_NO_THROW(spec.validate())
          << circuits::to_string(tc) << "/" << circuits::to_string(backend);
    }
  }
}

TEST(RunSpec, ValidateRejectsBadScalars) {
  core::RunSpec bad_iter;
  bad_iter.max_iterations = 0;
  EXPECT_THROW(bad_iter.validate(), std::invalid_argument);
  core::RunSpec bad_samples;
  bad_samples.n_opt_samples = 0;
  EXPECT_THROW(bad_samples.validate(), std::invalid_argument);
}

/// Counts callbacks and checks the per-iteration stats snapshot.
class CountingObserver final : public core::RunObserver {
 public:
  void on_start(core::Optimizer&) override { ++starts; }
  void on_iteration(core::Optimizer&, const core::IterationTrace& trace,
                    const core::EngineStats& stats) override {
    ++iterations;
    last_iteration = trace.iteration;
    last_requested = stats.requested;
  }
  void on_finish(core::Optimizer&, const core::GlovaResult& result) override {
    ++finishes;
    final_termination = result.termination;
  }

  int starts = 0;
  int iterations = 0;
  int finishes = 0;
  std::size_t last_iteration = 0;
  std::uint64_t last_requested = 0;
  std::string final_termination;
};

TEST(Observers, SeeEveryIterationAndTheFinish) {
  set_log_level(LogLevel::Warn);
  core::RunSpec spec;
  spec.testcase = circuits::Testcase::Sal;
  spec.seed = 1;
  const auto opt = core::make_optimizer(spec);
  const auto counter = std::make_shared<CountingObserver>();
  opt->add_observer(counter);
  const auto res = opt->run();
  EXPECT_EQ(counter->starts, 1);
  EXPECT_EQ(counter->finishes, 1);
  EXPECT_EQ(counter->iterations, static_cast<int>(res.rl_iterations));
  EXPECT_EQ(counter->last_iteration, res.rl_iterations);
  EXPECT_EQ(counter->last_requested, res.n_simulations);
  EXPECT_EQ(counter->final_termination, res.termination);
}

TEST(Observers, EarlyStopCancelsAfterStall) {
  set_log_level(LogLevel::Warn);
  core::GlovaConfig cfg;
  cfg.method = core::VerifMethod::C;
  cfg.seed = 1;
  cfg.max_iterations = 200;
  core::GlovaOptimizer opt(circuits::make_testbench(circuits::Testcase::Sal), cfg);
  opt.add_observer(std::make_shared<core::EarlyStopObserver>(/*patience=*/1));
  const auto res = opt.run();
  // Either the run verified before the first stall, or early-stop fired; in
  // both cases the session terminated cleanly well under the iteration cap.
  EXPECT_TRUE(res.termination == "early-stop" || res.termination == "verified")
      << res.termination;
  EXPECT_LT(res.rl_iterations, cfg.max_iterations);
}

}  // namespace
}  // namespace glova
