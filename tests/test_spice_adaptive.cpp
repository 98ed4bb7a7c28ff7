// LTE-adaptive timestep tests: controller bookkeeping (accepted/rejected
// counters, dt trace) on a stiff clocked circuit, agreement with the fixed
// reference grid (on that circuit and on every SPICE testbench's metrics
// under both channel models), and the step counters an installed context's
// counter block (an engine's EngineStats) and the process totals see.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "backend_parity_grid.hpp"
#include "circuits/registry.hpp"
#include "pdk/corner.hpp"
#include "pdk/mos_params.hpp"
#include "spice/circuit.hpp"
#include "spice/counters.hpp"
#include "spice/simulator.hpp"
#include "spice/warm_start.hpp"

namespace glova::spice {
namespace {

constexpr double kVdd = 0.9;
constexpr double kTStop = 3e-9;
constexpr double kDt = 2e-12;

/// A stiff testbench for the step controller: a two-stage CMOS inverter
/// chain driven by a sharp pulse.  The input edges force tiny steps (and
/// rejections while the controller re-learns the scale), the flat phases
/// between them let dt grow by an order of magnitude.
Circuit stiff_chain() {
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  const auto out = ckt.node("out");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(kVdd));
  ckt.add_vsource("VIN", in, Circuit::ground(),
                  Waveform::pulse(0.0, kVdd, 0.2e-9, 20e-12, 20e-12, 2e-9, 5e-9));
  const pdk::PvtCorner corner = pdk::typical_corner();
  const pdk::MosParams n = pdk::mos_params(false, corner, 100e-9);
  const pdk::MosParams p = pdk::mos_params(true, corner, 100e-9);
  ckt.add_mosfet("MN1", mid, in, Circuit::ground(), n, 2e-6, 100e-9);
  ckt.add_mosfet("MP1", mid, in, vdd, p, 4e-6, 100e-9);
  ckt.add_mosfet("MN2", out, mid, Circuit::ground(), n, 2e-6, 100e-9);
  ckt.add_mosfet("MP2", out, mid, vdd, p, 4e-6, 100e-9);
  ckt.add_resistor("RL", mid, out, 10e3);
  ckt.add_capacitor("CM", mid, Circuit::ground(), 2e-15);
  ckt.add_capacitor("CL", out, Circuit::ground(), 5e-15);
  return ckt;
}

TransientSpec chain_spec() {
  TransientSpec spec;
  spec.t_stop = kTStop;
  spec.dt = kDt;
  spec.record = {"out", "mid"};
  return spec;
}

/// The fixed uniform grid the controller is checked against.
SimulatorOptions fixed_grid() {
  SimulatorOptions options;
  options.adaptive_timestep = false;
  return options;
}

TEST(AdaptiveTimestep, FixedGridStepBookkeeping) {
  const Circuit ckt = stiff_chain();
  Simulator sim(ckt, fixed_grid());
  const TransientResult res = sim.transient(chain_spec());
  ASSERT_TRUE(res.ok) << res.error;

  // Uniform grid: every step accepted at exactly spec.dt, none rejected,
  // and the trace sums back to t_stop.
  EXPECT_EQ(res.steps_rejected, 0u);
  EXPECT_EQ(res.steps_accepted, res.times.size() - 1);
  ASSERT_EQ(res.dt_trace.size(), res.steps_accepted);
  for (const double dt : res.dt_trace) EXPECT_NEAR(dt, kDt, 1e-18);
  const double total = std::accumulate(res.dt_trace.begin(), res.dt_trace.end(), 0.0);
  EXPECT_NEAR(total, kTStop, 1e-15);
  EXPECT_DOUBLE_EQ(res.times.back(), kTStop);
}

TEST(AdaptiveTimestep, StiffRampControllerAdaptsAndMatchesFixedGrid) {
  const Circuit ckt = stiff_chain();
  Simulator fixed_sim(ckt, fixed_grid());
  const TransientResult fixed = fixed_sim.transient(chain_spec());
  ASSERT_TRUE(fixed.ok) << fixed.error;

  SimulatorOptions opt;
  opt.adaptive_timestep = true;
  Simulator sim(ckt, opt);
  const TransientResult res = sim.transient(chain_spec());
  ASSERT_TRUE(res.ok) << res.error;

  // Bookkeeping invariants: one recorded time per accepted step (plus t=0),
  // the dt trace tiles [0, t_stop] exactly, and the run ends on t_stop.
  EXPECT_EQ(res.times.size(), res.steps_accepted + 1);
  ASSERT_EQ(res.dt_trace.size(), res.steps_accepted);
  const double total = std::accumulate(res.dt_trace.begin(), res.dt_trace.end(), 0.0);
  EXPECT_NEAR(total, kTStop, kTStop * 1e-12);
  EXPECT_DOUBLE_EQ(res.times.back(), kTStop);

  // The controller genuinely adapts: far fewer steps than the fixed grid,
  // with at least one rejection at the sharp input edges and a dt range
  // spanning well beyond the initial step.
  EXPECT_LT(res.steps_accepted, fixed.steps_accepted / 2);
  EXPECT_GT(res.steps_rejected, 0u);
  const auto [lo, hi] = std::minmax_element(res.dt_trace.begin(), res.dt_trace.end());
  EXPECT_GE(*hi / *lo, 4.0);

  // Same endpoint physics as the fixed reference.
  for (const char* name : {"out", "mid"}) {
    EXPECT_NEAR(res.trace(name).back(), fixed.trace(name).back(), 0.02 * kVdd) << name;
  }
}

TEST(AdaptiveTimestep, ProcessCountersMirrorResultCounters) {
  const Circuit ckt = stiff_chain();
  SimulatorOptions opt;
  opt.adaptive_timestep = true;
  SpiceCounterBlock counts;
  EvaluationContext context;
  context.counters = &counts;
  const SpiceCounters before = spice_counters();
  TransientResult res;
  {
    const ScopedContext scope(context);
    Simulator sim(ckt, opt);
    res = sim.transient(chain_spec());
  }
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(counts.steps_accepted, res.steps_accepted);
  EXPECT_EQ(counts.steps_rejected, res.steps_rejected);
  const SpiceCounters c = spice_counters();
  EXPECT_EQ(c.steps_accepted - before.steps_accepted, res.steps_accepted);
  EXPECT_EQ(c.steps_rejected - before.steps_rejected, res.steps_rejected);
}

class AdaptiveTestbenchMetrics : public ::testing::TestWithParam<int> {};

// Every SPICE testbench's metrics on the adaptive grid stay within 3% of the
// fixed grid, over two parity-grid designs, every parity corner, and a
// nominal draw plus two local-mismatch draws.  The band is ~4x the worst
// deviation observed across the parity grid (see docs/architecture.md).
// Params 0-2 run the testcases under Level-1, 3-5 under EKV.
TEST_P(AdaptiveTestbenchMetrics, StayWithinToleranceBandOfTheFixedGrid) {
  const circuits::Testcase tc = circuits::all_testcases()[GetParam() % 3];
  const MosModel model = GetParam() < 3 ? MosModel::kLevel1 : MosModel::kEkv;
  const char* model_name = model == MosModel::kEkv ? "ekv" : "level1";
  EvaluationContext fixed_grid;
  fixed_grid.options.mos_model = model;
  fixed_grid.options.adaptive_timestep = false;
  EvaluationContext adaptive_grid = fixed_grid;
  adaptive_grid.options.adaptive_timestep = true;
  const auto tb = circuits::make_testbench(tc, circuits::Backend::Spice);
  const auto designs = parity_grid::designs_x01(tc);
  const auto corners = parity_grid::corners();
  for (std::size_t d = 0; d < 2; ++d) {  // two designs bound the runtime
    const auto x = tb->sizing().denormalize(designs[d]);
    Rng rng(100 + d);
    auto hs = pdk::sample_mismatch_set(tb->mismatch_layout(x, false), 2, rng,
                                       pdk::GlobalMode::Zero);
    hs.insert(hs.begin(), std::vector<double>{});
    for (std::size_t c = 0; c < corners.size(); ++c) {
      for (std::size_t i = 0; i < hs.size(); ++i) {
        thread_local_dc_cache().clear();
        const auto fixed = [&] {
          const ScopedContext scope(fixed_grid);
          return tb->evaluate(x, corners[c], hs[i]);
        }();
        thread_local_dc_cache().clear();
        const auto adaptive = [&] {
          const ScopedContext scope(adaptive_grid);
          return tb->evaluate(x, corners[c], hs[i]);
        }();
        ASSERT_EQ(adaptive.size(), fixed.size());
        for (std::size_t mi = 0; mi < fixed.size(); ++mi) {
          EXPECT_NEAR(adaptive[mi], fixed[mi], 0.03 * std::abs(fixed[mi]) + 1e-12)
              << circuits::to_string(tc) << " " << model_name << " design " << d << " corner "
              << c << " draw " << i << " metric " << mi;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTestcases, AdaptiveTestbenchMetrics, ::testing::Range(0, 6));

}  // namespace
}  // namespace glova::spice
