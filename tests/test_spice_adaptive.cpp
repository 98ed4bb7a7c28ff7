// LTE-adaptive timestep tests: controller bookkeeping (accepted/rejected
// counters, dt trace) on a stiff clocked circuit, agreement with the same
// controller capped at spec.dt (on that circuit and on every SPICE
// testbench's metrics), and the step counters an installed context's
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

/// The reference the controller is checked against: the same controller
/// with dt never above spec.dt, so it never steps wider than the initial
/// step and still refines at the edges.
SimulatorOptions capped_grid() {
  SimulatorOptions options;
  options.dt_max_factor = 1.0;
  return options;
}

TEST(AdaptiveTimestep, StiffRampControllerAdaptsAndMatchesTheCappedGrid) {
  const Circuit ckt = stiff_chain();
  Simulator capped_sim(ckt, capped_grid());
  const TransientResult capped = capped_sim.transient(chain_spec());
  ASSERT_TRUE(capped.ok) << capped.error;
  for (const double dt : capped.dt_trace) EXPECT_LE(dt, kDt * (1.0 + 1e-9));

  Simulator sim(ckt);
  const TransientResult res = sim.transient(chain_spec());
  ASSERT_TRUE(res.ok) << res.error;

  // Bookkeeping invariants: one recorded time per accepted step (plus t=0),
  // the dt trace tiles [0, t_stop] exactly, and the run ends on t_stop.
  EXPECT_EQ(res.times.size(), res.steps_accepted + 1);
  ASSERT_EQ(res.dt_trace.size(), res.steps_accepted);
  const double total = std::accumulate(res.dt_trace.begin(), res.dt_trace.end(), 0.0);
  EXPECT_NEAR(total, kTStop, kTStop * 1e-12);
  EXPECT_DOUBLE_EQ(res.times.back(), kTStop);

  // The controller genuinely adapts: far fewer steps than the capped run,
  // with at least one rejection at the sharp input edges and a dt range
  // spanning well beyond the initial step.
  EXPECT_LT(res.steps_accepted, capped.steps_accepted / 2);
  EXPECT_GT(res.steps_rejected, 0u);
  const auto [lo, hi] = std::minmax_element(res.dt_trace.begin(), res.dt_trace.end());
  EXPECT_GE(*hi / *lo, 4.0);

  // Same endpoint physics as the capped reference.
  for (const char* name : {"out", "mid"}) {
    EXPECT_NEAR(res.trace(name).back(), capped.trace(name).back(), 0.02 * kVdd) << name;
  }
}

TEST(AdaptiveTimestep, ProcessCountersMirrorResultCounters) {
  const Circuit ckt = stiff_chain();
  SpiceCounterBlock counts;
  EvaluationContext context;
  context.counters = &counts;
  const SpiceCounters before = spice_counters();
  TransientResult res;
  {
    const ScopedContext scope(context);
    Simulator sim(ckt);
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

// Every SPICE testbench's metrics on the default grid stay within 3% of the
// same controller capped at spec.dt, over two parity-grid designs, every
// parity corner, and a nominal draw plus two local-mismatch draws (see
// docs/architecture.md#adaptive-timestep for the measured deviation).
TEST_P(AdaptiveTestbenchMetrics, StayWithinToleranceBandOfTheCappedGrid) {
  const circuits::Testcase tc = circuits::all_testcases()[GetParam()];
  EvaluationContext capped;
  capped.options = capped_grid();
  const EvaluationContext adaptive_grid;
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
        const auto reference = [&] {
          const ScopedContext scope(capped);
          return tb->evaluate(x, corners[c], hs[i]);
        }();
        thread_local_dc_cache().clear();
        const auto adaptive = [&] {
          const ScopedContext scope(adaptive_grid);
          return tb->evaluate(x, corners[c], hs[i]);
        }();
        ASSERT_EQ(adaptive.size(), reference.size());
        for (std::size_t mi = 0; mi < reference.size(); ++mi) {
          EXPECT_NEAR(adaptive[mi], reference[mi], 0.03 * std::abs(reference[mi]) + 1e-12)
              << circuits::to_string(tc) << " design " << d << " corner " << c << " draw "
              << i << " metric " << mi;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTestcases, AdaptiveTestbenchMetrics, ::testing::Range(0, 3));

}  // namespace
}  // namespace glova::spice
