// Convergence-recovery ladder, evaluation deadlines, and deterministic fault
// injection: every rescue rung (DC gmin stepping, transient substep cutting,
// restart-from-DC), the cooperative Newton-iteration deadline, the engine's
// retry / degrade funnel, and the defaults-off bit-identity guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "backend_parity_grid.hpp"
#include "circuits/registry.hpp"
#include "circuits/testbench.hpp"
#include "core/evaluation_engine.hpp"
#include "spice/circuit.hpp"
#include "spice/counters.hpp"
#include "spice/simulator.hpp"
#include "spice/warm_start.hpp"
#include "spice/waveform.hpp"

namespace glova::spice {
namespace {

constexpr std::uint64_t kAll = std::numeric_limits<std::uint64_t>::max();

/// RC lowpass driven by a pulse, tau = R * 1 fF comparable to the run length
/// so the waveform actually moves.  One solved unknown ("out"; the source
/// node is absorbed), so every Newton solve is one fault-plan index.
Circuit rc_circuit(double r_ohms = 1e3) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("VIN", in, Circuit::ground(),
                  Waveform::pulse(0.0, 1.0, 2e-12, 2e-12, 2e-12, 4e-12, 20e-12));
  ckt.add_resistor("R1", in, out, r_ohms);
  ckt.add_capacitor("C1", out, Circuit::ground(), 1e-15);
  return ckt;
}

TransientSpec rc_spec() {
  TransientSpec spec;
  spec.t_stop = 10e-12;
  spec.dt = 1e-12;
  spec.record = {"out"};
  return spec;
}

/// The fixed uniform grid: the solve numbering below (one fault-plan index
/// per timestep, solve 3 at t = 3 ps) is pinned on it.
SimulatorOptions fixed_grid() {
  SimulatorOptions options;
  options.adaptive_timestep = false;
  return options;
}

FaultPlan one_site(std::uint64_t begin, std::uint64_t end, FaultPlan::Kind kind,
                   int extra = 50) {
  FaultPlan plan;
  plan.sites.push_back({begin, end, kind, extra});
  return plan;
}

/// RAII fault-plan installation so no test leaks a plan into the next.
class ScopedFaults {
 public:
  explicit ScopedFaults(const FaultPlan* plan) { set_thread_fault_plan(plan); }
  ~ScopedFaults() { set_thread_fault_plan(nullptr); }
};

TEST(FaultPlan, MatchesHalfOpenSiteRanges) {
  const FaultPlan plan = one_site(2, 4, FaultPlan::Kind::NanStamp);
  EXPECT_EQ(plan.match(1), nullptr);
  ASSERT_NE(plan.match(2), nullptr);
  EXPECT_EQ(plan.match(2)->kind, FaultPlan::Kind::NanStamp);
  ASSERT_NE(plan.match(3), nullptr);
  EXPECT_EQ(plan.match(4), nullptr);
}

// Pins the solve numbering the rest of this file relies on: a converging
// scalar run on the fixed grid consumes one index for the cold DC solve and
// one per timestep.
TEST(FaultPlan, EmptyPlanCountsEverySolve) {
  const Circuit ckt = rc_circuit();
  FaultPlan probe;  // no sites: pure dry-run counter
  ScopedFaults guard(&probe);
  Simulator sim(ckt, fixed_grid());
  const TransientResult res = sim.transient(rc_spec());
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(probe.cursor, 1u + res.steps_accepted);
}

TEST(Recovery, DefaultsOffIsBitIdenticalToRecoveryEnabledWithoutFailures) {
  const Circuit ckt = rc_circuit();
  SimulatorOptions plain;
  SimulatorOptions armed;
  armed.recovery.enabled = true;
  armed.deadline_newton_iterations = 1u << 30;

  Simulator a(ckt, plain);
  Simulator b(ckt, armed);
  const TransientResult ra = a.transient(rc_spec());
  const TransientResult rb = b.transient(rc_spec());
  ASSERT_TRUE(ra.ok);
  ASSERT_TRUE(rb.ok);
  EXPECT_EQ(ra.failure.stage, FailureStage::None);
  ASSERT_EQ(ra.times, rb.times);
  ASSERT_EQ(ra.traces.size(), rb.traces.size());
  for (std::size_t i = 0; i < ra.traces.size(); ++i) {
    EXPECT_EQ(ra.traces[i].values, rb.traces[i].values) << ra.traces[i].name;
  }
}

TEST(Recovery, GminLadderRescuesAFaultedOperatingPoint) {
  const Circuit ckt = rc_circuit();
  SimulatorOptions opts;

  // Reference solution and the standard (always-on) ladder's solve count:
  // faulting every solve makes the cold attempt and the source-stepping ramp
  // all fail, and the cursor afterwards is exactly that ladder's length.
  OpResult reference;
  {
    Simulator sim(ckt, opts);
    reference = sim.operating_point();
    ASSERT_TRUE(reference.converged);
  }
  FaultPlan all = one_site(0, kAll, FaultPlan::Kind::NonConverge);
  std::uint64_t standard_ladder = 0;
  {
    ScopedFaults guard(&all);
    Simulator sim(ckt, opts);
    const OpResult op = sim.operating_point();
    EXPECT_FALSE(op.converged);
    standard_ladder = all.cursor;
  }
  ASSERT_GT(standard_ladder, 1u);

  // Fault exactly the standard ladder; only the gmin rungs can save the run.
  const SpiceCounters before = spice_counters();
  FaultPlan fp = one_site(0, standard_ladder, FaultPlan::Kind::NonConverge);
  SimulatorOptions armed = opts;
  armed.recovery.enabled = true;
  ScopedFaults guard(&fp);
  Simulator sim(ckt, armed);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  ASSERT_EQ(op.node_voltages.size(), reference.node_voltages.size());
  for (std::size_t i = 0; i < op.node_voltages.size(); ++i) {
    EXPECT_NEAR(op.node_voltages[i], reference.node_voltages[i], 1e-6);
  }
  EXPECT_EQ(spice_counters().recovered_dc, before.recovered_dc + 1);

  // Without recovery the same fault pattern stays fatal.
  FaultPlan fp2 = one_site(0, standard_ladder, FaultPlan::Kind::NonConverge);
  fp2.cursor = 0;
  set_thread_fault_plan(&fp2);
  Simulator plain(ckt, opts);
  EXPECT_FALSE(plain.operating_point().converged);
}

TEST(Recovery, TransientDcFailureReportsTheDcStage) {
  const Circuit ckt = rc_circuit();
  const FaultPlan all = one_site(0, kAll, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&all);
  Simulator sim(ckt, SimulatorOptions{});
  const TransientResult res = sim.transient(rc_spec());
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failure.stage, FailureStage::DcOperatingPoint);
  EXPECT_FALSE(res.error.empty());
  EXPECT_EQ(res.error, res.failure.to_string());
}

TEST(Recovery, StepCuttingRescuesAFaultedTransientStep) {
  const Circuit ckt = rc_circuit();
  const TransientSpec spec = rc_spec();

  Simulator ref_sim(ckt, fixed_grid());
  const TransientResult ref = ref_sim.transient(spec);
  ASSERT_TRUE(ref.ok);

  // Solve index 3 is the third timestep (t = 3 ps); only that solve faults,
  // so the first cut's backward-Euler substeps land on clean indices.
  {
    const FaultPlan fp = one_site(3, 4, FaultPlan::Kind::NonConverge);
    ScopedFaults guard(&fp);
    Simulator sim(ckt, fixed_grid());
    const TransientResult res = sim.transient(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.failure.stage, FailureStage::TransientNewton);
    EXPECT_DOUBLE_EQ(res.failure.time, 3e-12);
    EXPECT_FALSE(res.failure.worst_node.empty());
  }

  const SpiceCounters before = spice_counters();
  const FaultPlan fp = one_site(3, 4, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&fp);
  SimulatorOptions armed = fixed_grid();
  armed.recovery.enabled = true;
  Simulator sim(ckt, armed);
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(spice_counters().recovered_transient, before.recovered_transient + 1);
  // Substep cutting records only at the original grid point: same time axis,
  // values within the rung's integration-order difference (the substeps are
  // first-order backward Euler against the trapezoidal reference).
  ASSERT_EQ(res.times, ref.times);
  const auto& rescued = res.trace("out");
  const auto& reference = ref.trace("out");
  ASSERT_EQ(rescued.size(), reference.size());
  for (std::size_t i = 0; i < rescued.size(); ++i) {
    EXPECT_NEAR(rescued[i], reference[i], 0.1) << "sample " << i;
  }
}

TEST(Recovery, DcRestartRescuesWhenStepCutsAreExhausted) {
  const Circuit ckt = rc_circuit();
  const SpiceCounters before = spice_counters();
  const FaultPlan fp = one_site(3, 4, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&fp);
  SimulatorOptions armed = fixed_grid();
  armed.recovery.enabled = true;
  armed.recovery.max_step_cuts = 0;  // skip straight to the restart rung
  armed.recovery.dc_restart_attempts = 1;
  Simulator sim(ckt, armed);
  const TransientResult res = sim.transient(rc_spec());
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.failure.stage, FailureStage::None);
  EXPECT_EQ(spice_counters().recovered_transient, before.recovered_transient + 1);
}

TEST(Recovery, NanStampAndSingularMatrixFaultsAreRescued) {
  const Circuit ckt = rc_circuit();
  for (const FaultPlan::Kind kind :
       {FaultPlan::Kind::NanStamp, FaultPlan::Kind::SingularMatrix}) {
    {
      const FaultPlan fp = one_site(3, 4, kind);
      ScopedFaults guard(&fp);
      Simulator sim(ckt, fixed_grid());
      const TransientResult res = sim.transient(rc_spec());
      EXPECT_FALSE(res.ok);
      EXPECT_EQ(res.failure.stage, FailureStage::TransientNewton);
    }
    const FaultPlan fp = one_site(3, 4, kind);
    ScopedFaults guard(&fp);
    SimulatorOptions armed = fixed_grid();
    armed.recovery.enabled = true;
    Simulator sim(ckt, armed);
    const TransientResult res = sim.transient(rc_spec());
    EXPECT_TRUE(res.ok) << res.error;
  }
}

TEST(Recovery, DeadlineAbortsDeterministically) {
  const Circuit ckt = rc_circuit();
  SimulatorOptions opts;
  opts.deadline_newton_iterations = 8;
  const FaultPlan fp = one_site(0, kAll, FaultPlan::Kind::SlowConverge, 50);

  const SpiceCounters before = spice_counters();
  {
    ScopedFaults guard(&fp);
    Simulator sim(ckt, opts);
    const TransientResult res = sim.transient(rc_spec());
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.failure.stage, FailureStage::Deadline);
    EXPECT_EQ(res.error, res.failure.to_string());
  }
  EXPECT_EQ(spice_counters().deadline_aborts, before.deadline_aborts + 1);
}

TEST(Recovery, EscalationLevelsShapeTheDefaultOptions) {
  const RecoveryPolicy off;
  EXPECT_FALSE(escalated(off, 0).enabled);
  EXPECT_TRUE(escalated(off, 1).enabled);
  const RecoveryPolicy o = escalated(off, 2);
  EXPECT_TRUE(o.enabled);
  EXPECT_GT(o.max_gmin_rungs, RecoveryPolicy{}.max_gmin_rungs);
  EXPECT_GT(o.max_step_cuts, RecoveryPolicy{}.max_step_cuts);
}

// ---------------------------------------------------------------------------
// The engine-level funnel: structured errors out of the backends, escalated
// retries, degradation quarantine, and the EngineStats taxonomy.

struct SalFixture {
  circuits::TestbenchPtr tb;
  std::vector<double> x;
  pdk::PvtCorner corner;

  SalFixture() {
    tb = circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Spice);
    x = tb->sizing().denormalize(parity_grid::designs_x01(circuits::Testcase::Sal)[0]);
    corner = parity_grid::corners()[0];
  }
};

TEST(EngineFunnel, BackendsRaiseStructuredErrorsWithPenaltyMetrics) {
  SalFixture fx;
  thread_local_dc_cache().clear();
  const FaultPlan all = one_site(0, kAll, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&all);
  try {
    (void)fx.tb->evaluate(fx.x, fx.corner, {});
    FAIL() << "expected EvaluationError";
  } catch (const circuits::EvaluationError& e) {
    EXPECT_TRUE(e.failure().failed);
    EXPECT_FALSE(e.failure().stage.empty());
    EXPECT_FALSE(e.failure().message.empty());
    EXPECT_EQ(e.penalty_metrics(), (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
  }
}

TEST(EngineFunnel, PenaltyPathIsTheDefaultAndNeverThrows) {
  SalFixture fx;
  core::EngineConfig config;
  config.cache_capacity = 0;
  core::EvaluationEngine engine(fx.tb, config);
  thread_local_dc_cache().clear();
  const FaultPlan all = one_site(0, kAll, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&all);
  const auto metrics = engine.evaluate_one(fx.x, fx.corner, {});
  EXPECT_EQ(metrics, (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
  const core::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.degraded_evals, 0u);
}

TEST(EngineFunnel, EscalatedRetryRecoversATransientFault) {
  SalFixture fx;

  // Reference metrics and the per-evaluation solve budget F: a clean run's
  // cursor tells how many solves one evaluation consumes, and a fault-all
  // failing attempt consumes at most as many before throwing.
  thread_local_dc_cache().clear();
  FaultPlan probe;
  set_thread_fault_plan(&probe);
  const auto reference = fx.tb->evaluate(fx.x, fx.corner, {});
  set_thread_fault_plan(nullptr);
  const std::uint64_t clean_solves = probe.cursor;
  ASSERT_GT(clean_solves, 0u);

  std::uint64_t failing_solves = 0;
  {
    thread_local_dc_cache().clear();
    const FaultPlan all = one_site(0, kAll, FaultPlan::Kind::NonConverge);
    ScopedFaults guard(&all);
    EXPECT_THROW((void)fx.tb->evaluate(fx.x, fx.corner, {}), circuits::EvaluationError);
    failing_solves = all.cursor;
  }

  // Fault exactly one failing attempt; the escalated retry runs clean.
  core::EngineConfig config;
  config.cache_capacity = 0;
  config.max_eval_retries = 2;
  core::EvaluationEngine engine(fx.tb, config);
  thread_local_dc_cache().clear();
  const FaultPlan fp = one_site(0, failing_solves, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&fp);
  const auto metrics = engine.evaluate_one(fx.x, fx.corner, {});
  ASSERT_EQ(metrics.size(), reference.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_NEAR(metrics[i], reference[i], 1e-3 * std::max(1.0, std::abs(reference[i])))
        << "metric " << i;
  }
  const core::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.degraded_evals, 0u);
  EXPECT_EQ(stats.requested, 1u);
  // Neither the escalated copy nor the engine's context outlives the call:
  // neighboring evaluations on this thread see the default context.
  EXPECT_EQ(current_context().options.recovery, RecoveryPolicy{});
  EXPECT_EQ(current_context().counters, nullptr);
}

TEST(EngineFunnel, DegradationQuarantinesToTheBehavioralSibling) {
  SalFixture fx;
  ASSERT_NE(fx.tb->degraded_fallback(), nullptr);

  const auto behavioral =
      circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Behavioral);
  const auto expected = behavioral->evaluate(fx.x, fx.corner, {});

  core::EngineConfig config;
  config.cache_capacity = 0;
  config.degrade_to_behavioral = true;
  core::EvaluationEngine engine(fx.tb, config);
  thread_local_dc_cache().clear();
  const FaultPlan all = one_site(0, kAll, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&all);
  const auto metrics = engine.evaluate_one(fx.x, fx.corner, {});
  EXPECT_EQ(metrics, expected);
  const core::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.degraded_evals, 1u);
}

TEST(EngineFunnel, StatsSurfaceTheRecoveryCounters) {
  SalFixture fx;
  core::EngineConfig config;
  config.cache_capacity = 0;
  config.dc_warm_start = false;      // every evaluation numbers its solves alike
  config.adaptive_timestep = false;  // a failed step is cut, not shrunk
  config.recovery = true;
  core::EvaluationEngine engine(fx.tb, config);

  // A clean evaluation numbers the solves; the middle one is a timestep.
  FaultPlan probe;
  {
    ScopedFaults guard(&probe);
    (void)engine.evaluate_one(fx.x, fx.corner, {});
  }
  ASSERT_GT(probe.cursor, 2u);
  const std::uint64_t mid = probe.cursor / 2;
  {
    const FaultPlan fp = one_site(mid, mid + 1, FaultPlan::Kind::NonConverge);
    ScopedFaults guard(&fp);
    (void)engine.evaluate_one(fx.x, fx.corner, {});
  }
  const core::EngineStats rescued = engine.stats();
  EXPECT_EQ(rescued.recovered_transient, 1u);
  EXPECT_EQ(rescued.recovered_dc, 0u);
  EXPECT_EQ(rescued.deadline_aborts, 0u);
  EXPECT_EQ(rescued.retries, 0u);

  // A bare faulted simulation beside the engine counts into the process
  // totals only, never into the engine's stats.
  const SpiceCounters before = spice_counters();
  {
    const Circuit ckt = rc_circuit();
    const FaultPlan fp = one_site(3, 4, FaultPlan::Kind::NonConverge);
    ScopedFaults guard(&fp);
    SimulatorOptions armed = fixed_grid();
    armed.recovery.enabled = true;
    Simulator sim(ckt, armed);
    const TransientResult res = sim.transient(rc_spec());
    ASSERT_TRUE(res.ok) << res.error;
  }
  EXPECT_EQ(spice_counters().recovered_transient, before.recovered_transient + 1);
  const core::EngineStats after = engine.stats();
  EXPECT_EQ(after.recovered_transient, rescued.recovered_transient);
  EXPECT_EQ(after.recovered_dc, rescued.recovered_dc);
  EXPECT_EQ(after.deadline_aborts, rescued.deadline_aborts);
  EXPECT_EQ(after.steps_accepted, rescued.steps_accepted);
  EXPECT_EQ(after.steps_rejected, rescued.steps_rejected);
}

}  // namespace
}  // namespace glova::spice
