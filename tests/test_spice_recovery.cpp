// Convergence-recovery ladder, evaluation deadlines, and deterministic fault
// injection: every rescue path (DC gmin stepping, the timestep controller
// shrinking dt on a failed step, restart-from-DC at dt_min), the cooperative
// Newton-iteration deadline, the engine's retry / degrade funnel, and the
// defaults-off bit-identity guarantee.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "spice/measure.hpp"
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
// scalar run consumes one index for the cold DC solve and one per timestep
// trial, accepted or rejected.  Index 3 is therefore the third trial step.
TEST(FaultPlan, EmptyPlanCountsEverySolve) {
  const Circuit ckt = rc_circuit();
  FaultPlan probe;  // no sites: pure dry-run counter
  ScopedFaults guard(&probe);
  Simulator sim(ckt);
  const TransientResult res = sim.transient(rc_spec());
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(probe.cursor, 1u + res.steps_accepted + res.steps_rejected);
  EXPECT_GT(probe.cursor, 4u);
}

/// Faulted solves, from solve index `begin` on, that the timestep
/// controller burns before it gives up at dt_min: each failed solve shrinks
/// dt, and a failure at dt_min ends the run (recovery off).
std::uint64_t solves_to_dt_min(const Circuit& ckt, const TransientSpec& spec,
                               std::uint64_t begin) {
  const FaultPlan all = one_site(begin, kAll, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&all);
  Simulator sim(ckt);
  const TransientResult res = sim.transient(spec);
  EXPECT_EQ(res.failure.stage, FailureStage::Timestep) << res.error;
  return all.cursor - begin;
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

constexpr FaultPlan::Kind kStepFaults[] = {FaultPlan::Kind::NonConverge,
                                           FaultPlan::Kind::NanStamp,
                                           FaultPlan::Kind::SingularMatrix};

// One faulted timestep solve is the controller's to absorb, recovery or
// not: it rejects the step, redoes it at a tenth of the dt and carries on.
// The ladder never runs, and the trace stays on the clean run's waveform.
// The band is the clean run's own startup error: its two backward-Euler
// steps after the 2 ps edge run at dt = tau and overshoot the exact ramp
// response (0.184 V at 3 ps) by 0.066 V, while the faulted run, redone at
// dt / 10, lands within 2 mV of it.  From the next breakpoint on the runs
// agree to 0.02 V.
TEST(Recovery, ControllerAbsorbsAnIsolatedStepFault) {
  const Circuit ckt = rc_circuit();
  Simulator ref_sim(ckt);
  const TransientResult ref = ref_sim.transient(rc_spec());
  ASSERT_TRUE(ref.ok) << ref.error;

  for (const FaultPlan::Kind kind : kStepFaults) {
    const SpiceCounters before = spice_counters();
    const FaultPlan fp = one_site(3, 4, kind);
    ScopedFaults guard(&fp);
    Simulator sim(ckt);
    const TransientResult res = sim.transient(rc_spec());
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.failure.stage, FailureStage::None);
    EXPECT_EQ(res.steps_rejected, ref.steps_rejected + 1);
    EXPECT_EQ(spice_counters().recovered_transient, before.recovered_transient);
    EXPECT_EQ(res.times.back(), ref.times.back());
    const auto& out = res.trace("out");
    const auto& clean = ref.trace("out");
    for (std::size_t i = 0; i < ref.times.size(); ++i) {
      EXPECT_NEAR(value_at(res.times, out, ref.times[i]), clean[i], 0.1)
          << "t = " << ref.times[i] << ", fault kind " << static_cast<int>(kind);
    }
    EXPECT_NEAR(out.back(), clean.back(), 0.02);
  }
}

// A run of faults drives dt down to dt_min.  Without recovery the failure
// there ends the run with the timestep stage; with recovery the
// restart-from-DC rung re-solves a pseudo-DC point at the failing time and
// the run finishes, the restart accepted as a dt_min step.
TEST(Recovery, DcRestartRescuesAStepFaultedDownToDtMin) {
  const Circuit ckt = rc_circuit();
  const TransientSpec spec = rc_spec();
  const std::uint64_t depth = solves_to_dt_min(ckt, spec, 3);
  ASSERT_GE(depth, 2u) << "the controller must shrink dt before giving up";
  const double dt_min = spec.dt * SimulatorOptions{}.dt_min_factor;

  for (const FaultPlan::Kind kind : kStepFaults) {
    {
      const FaultPlan fp = one_site(3, 3 + depth, kind);
      ScopedFaults guard(&fp);
      Simulator sim(ckt);
      const TransientResult res = sim.transient(spec);
      EXPECT_FALSE(res.ok);
      EXPECT_EQ(res.failure.stage, FailureStage::Timestep);
      EXPECT_EQ(res.failure.attempts, 0);
      EXPECT_FALSE(res.failure.worst_node.empty());
      EXPECT_EQ(res.error, res.failure.to_string());
      EXPECT_EQ(fp.cursor, 3 + depth);
    }
    const SpiceCounters before = spice_counters();
    const FaultPlan fp = one_site(3, 3 + depth, kind);
    ScopedFaults guard(&fp);
    SimulatorOptions armed;
    armed.recovery.enabled = true;
    Simulator sim(ckt, armed);
    const TransientResult res = sim.transient(spec);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.failure.stage, FailureStage::None);
    EXPECT_EQ(res.times.back(), spec.t_stop);
    EXPECT_EQ(spice_counters().recovered_transient, before.recovered_transient + 1);
    EXPECT_EQ(spice_counters().recovered_dc, before.recovered_dc);
    const double smallest = *std::min_element(res.dt_trace.begin(), res.dt_trace.end());
    EXPECT_NEAR(smallest, dt_min, 1e-6 * dt_min);
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
  EXPECT_GT(o.dc_restart_attempts, RecoveryPolicy{}.dc_restart_attempts);
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
  config.dc_warm_start = false;  // every evaluation numbers its solves alike
  core::EngineConfig plain = config;
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
  // Faulting every solve from there on, an engine without recovery fails at
  // dt_min; the solves it burned are the run of faults that reaches it.
  std::uint64_t depth = 0;
  {
    core::EvaluationEngine unarmed(fx.tb, plain);
    const FaultPlan all = one_site(mid, kAll, FaultPlan::Kind::NonConverge);
    ScopedFaults guard(&all);
    (void)unarmed.evaluate_one(fx.x, fx.corner, {});
    depth = all.cursor - mid;
  }
  ASSERT_GE(depth, 2u);
  {
    const FaultPlan fp = one_site(mid, mid + depth, FaultPlan::Kind::NonConverge);
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
  const Circuit ckt = rc_circuit();
  const std::uint64_t rc_depth = solves_to_dt_min(ckt, rc_spec(), 3);
  const SpiceCounters before = spice_counters();
  {
    const FaultPlan fp = one_site(3, 3 + rc_depth, FaultPlan::Kind::NonConverge);
    ScopedFaults guard(&fp);
    SimulatorOptions armed;
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
