// The one failure path, driven by deterministic fault injection: the
// timestep controller absorbs an isolated failed step by redoing it at a
// smaller dt; what it cannot absorb ends the run with a structured
// FailureReport, which the SPICE backends raise as an EvaluationError and
// the engine resolves to the backend's penalty metrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "backend_parity_grid.hpp"
#include "circuits/registry.hpp"
#include "circuits/testbench.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/evaluation_engine.hpp"
#include "spice/circuit.hpp"
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

FaultPlan one_site(std::uint64_t begin, std::uint64_t end, FaultPlan::Kind kind) {
  FaultPlan plan;
  plan.sites.push_back({begin, end, kind});
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
/// dt, and a failure at dt_min ends the run.
std::uint64_t solves_to_dt_min(const Circuit& ckt, const TransientSpec& spec,
                               std::uint64_t begin) {
  const FaultPlan all = one_site(begin, kAll, FaultPlan::Kind::NonConverge);
  ScopedFaults guard(&all);
  Simulator sim(ckt);
  const TransientResult res = sim.transient(spec);
  EXPECT_EQ(res.failure.stage, FailureStage::Timestep) << res.error;
  return all.cursor - begin;
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

// One faulted timestep solve is the controller's to absorb: it rejects the
// step, redoes it at a tenth of the dt and carries on, and the trace stays
// on the clean run's waveform.
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
    const FaultPlan fp = one_site(3, 4, kind);
    ScopedFaults guard(&fp);
    Simulator sim(ckt);
    const TransientResult res = sim.transient(rc_spec());
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.failure.stage, FailureStage::None);
    EXPECT_EQ(res.steps_rejected, ref.steps_rejected + 1);
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

// A run of faults drives dt down to dt_min, and the failure there ends the
// run with the timestep stage and the worst residual of the failed iterate.
TEST(Recovery, StepFaultedDownToDtMinReportsTheTimestepStage) {
  const Circuit ckt = rc_circuit();
  const TransientSpec spec = rc_spec();
  const std::uint64_t depth = solves_to_dt_min(ckt, spec, 3);
  ASSERT_GE(depth, 2u) << "the controller must shrink dt before giving up";

  for (const FaultPlan::Kind kind : kStepFaults) {
    const FaultPlan fp = one_site(3, 3 + depth, kind);
    ScopedFaults guard(&fp);
    Simulator sim(ckt);
    const TransientResult res = sim.transient(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.failure.stage, FailureStage::Timestep);
    EXPECT_FALSE(res.failure.worst_node.empty());
    EXPECT_EQ(res.error, res.failure.to_string());
    EXPECT_EQ(fp.cursor, 3 + depth);
  }
}

// ---------------------------------------------------------------------------
// The engine-level funnel: structured errors out of the backends, penalty
// metrics out of the engine, and the premise that real designs never take it.

// On the default numerics a SPICE evaluation does not fail: each SPICE
// testbench evaluates random designs at every corner of C and C-MC_G-L,
// under both corner filters, with one mismatch draw each (C has none), and
// none raises an EvaluationError.  A netlist or solver change that makes
// real designs fail shows up here, not as penalty metrics the optimizer
// quietly steers around.
TEST(EngineFunnel, RandomDesignsNeverFailOnTheDefaultNumerics) {
  constexpr std::size_t kDesigns = 16;
  for (const circuits::Testcase tc : circuits::all_testcases()) {
    const auto tb = circuits::make_testbench(tc, circuits::Backend::Spice);
    Rng rng(2026);
    std::size_t evaluations = 0;
    for (std::size_t d = 0; d < kDesigns; ++d) {
      const auto x = tb->sizing().denormalize(rng.uniform_vector(tb->sizing().dimension(), 0, 1));
      for (const core::VerifMethod method : {core::VerifMethod::C, core::VerifMethod::C_MCGL}) {
        for (const char* filter : {"all", "cold_lv"}) {
          const auto op = core::OperationalConfig::for_method(method, 1, filter);
          for (const pdk::PvtCorner& corner : op.corners) {
            const std::vector<double> h = op.sample_conditions(*tb, x, 1, rng).front();
            try {
              (void)tb->evaluate(x, corner, h);
              ++evaluations;
            } catch (const circuits::EvaluationError& e) {
              ADD_FAILURE() << tb->name() << ", design " << d << ", " << core::to_string(method)
                            << " " << filter << ": " << e.what();
            }
          }
        }
      }
    }
    // 30 corners of C, 6 of C-MC_G-L, and one cold_lv corner of each.
    EXPECT_EQ(evaluations, kDesigns * 38) << tb->name();
  }
}

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
  EXPECT_EQ(stats.requested, 1u);
  EXPECT_EQ(stats.executed, 1u);
  // The engine's context does not outlive the call: neighboring
  // evaluations on this thread see the default context.
  EXPECT_EQ(current_context().counters, nullptr);
}

}  // namespace
}  // namespace glova::spice
