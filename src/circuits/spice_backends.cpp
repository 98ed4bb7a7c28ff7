#include "circuits/spice_backend.hpp"

#include <cmath>
#include <stdexcept>

#include "circuits/parasitics.hpp"
#include "common/units.hpp"
#include "spice/measure.hpp"
#include "spice/warm_start.hpp"

namespace glova::circuits {

EvaluationFailure evaluation_failure_from(const spice::FailureReport& report) {
  EvaluationFailure f;
  f.failed = true;
  f.stage = spice::to_string(report.stage);
  f.message = report.to_string();
  return f;
}

namespace {
// Testbench timing: clock rises at kClkRise (evaluation), falls at kClkFall
// (precharge/reset); the run ends at kTStop.
constexpr double kClkRise = 0.2e-9;
constexpr double kClkFall = 3.2e-9;
constexpr double kTStop = 6.0e-9;
constexpr double kDt = 2.0e-12;
constexpr double kEdge = 20e-12;
// Warm-start cache tag for the SAL topology (keys must not collide across
// testbenches whose design vectors happen to share a shape).
constexpr std::uint64_t kSalWarmStartTag = 0x5a1;
}  // namespace

StrongArmLatchSpice::StrongArmLatchSpice() = default;

spice::Circuit StrongArmLatchSpice::build_netlist(std::span<const double> x,
                                                  const pdk::PvtCorner& corner,
                                                  std::span<const double> h) const {
  if (x.size() != SalSizing::kCount) throw std::invalid_argument("SAL spice: bad sizing vector");
  if (!h.empty() && h.size() != 22) throw std::invalid_argument("SAL spice: bad mismatch vector");
  const double vdd = corner.vdd;
  const auto dvth = [&](std::size_t d) { return h.empty() ? 0.0 : h[2 * d]; };
  const auto dbeta = [&](std::size_t d) { return h.empty() ? 0.0 : h[2 * d + 1]; };

  spice::Circuit ckt;
  const auto vdd_n = ckt.node("vdd");
  const auto clk = ckt.node("clk");
  const auto inp = ckt.node("inp");
  const auto inn = ckt.node("inn");
  const auto tail = ckt.node("tail");
  const auto di_a = ckt.node("di_a");
  const auto di_b = ckt.node("di_b");
  const auto out_a = ckt.node("out_a");
  const auto out_b = ckt.node("out_b");
  const auto gnd = spice::Circuit::ground();

  ckt.add_vsource("VDD", vdd_n, gnd, spice::Waveform::dc(vdd));
  const double vin = behavioral_.conditions().v_input_diff;
  const double vcm = behavioral_.conditions().input_cm_frac * vdd;
  ckt.add_vsource("VCLK", clk, gnd,
                  spice::Waveform::pulse(0.0, vdd, kClkRise, kEdge, kEdge, kClkFall - kClkRise,
                                         0.0));
  ckt.add_vsource("VINP", inp, gnd, spice::Waveform::dc(vcm + 0.5 * vin));
  ckt.add_vsource("VINN", inn, gnd, spice::Waveform::dc(vcm - 0.5 * vin));

  // Device instance order matches StrongArmLatch::devices():
  //   0 tail, 1-2 input pair, 3-4 cross NMOS, 5-6 cross PMOS,
  //   7-8 precharge PMOS, 9-10 SR latch (modeled as load here).
  const auto mos = [&](std::size_t d, bool pmos, std::size_t li) {
    return pdk::mos_params(pmos, corner, x[li], dvth(d), dbeta(d));
  };
  ckt.add_mosfet("Mtail", tail, clk, gnd, mos(0, false, SalSizing::kLTail),
                 x[SalSizing::kWTail], x[SalSizing::kLTail]);
  ckt.add_mosfet("Min_a", di_a, inp, tail, mos(1, false, SalSizing::kLIn),
                 x[SalSizing::kWIn], x[SalSizing::kLIn]);
  ckt.add_mosfet("Min_b", di_b, inn, tail, mos(2, false, SalSizing::kLIn),
                 x[SalSizing::kWIn], x[SalSizing::kLIn]);
  ckt.add_mosfet("Mxn_a", out_a, out_b, di_a, mos(3, false, SalSizing::kLXn),
                 x[SalSizing::kWXn], x[SalSizing::kLXn]);
  ckt.add_mosfet("Mxn_b", out_b, out_a, di_b, mos(4, false, SalSizing::kLXn),
                 x[SalSizing::kWXn], x[SalSizing::kLXn]);
  ckt.add_mosfet("Mxp_a", out_a, out_b, vdd_n, mos(5, true, SalSizing::kLXp),
                 x[SalSizing::kWXp], x[SalSizing::kLXp]);
  ckt.add_mosfet("Mxp_b", out_b, out_a, vdd_n, mos(6, true, SalSizing::kLXp),
                 x[SalSizing::kWXp], x[SalSizing::kLXp]);
  ckt.add_mosfet("Mpre_a", out_a, clk, vdd_n, mos(7, true, SalSizing::kLPre),
                 x[SalSizing::kWPre], x[SalSizing::kLPre]);
  ckt.add_mosfet("Mpre_b", out_b, clk, vdd_n, mos(8, true, SalSizing::kLPre),
                 x[SalSizing::kWPre], x[SalSizing::kLPre]);

  // Output loads: the sized caps plus the SR-latch input gate capacitance.
  const Parasitics& par = parasitics_28nm();
  const double c_sr_gate =
      0.5 * x[SalSizing::kCSr] + 2.0 * par.cox * x[SalSizing::kWSr] * x[SalSizing::kLSr];
  ckt.add_capacitor("Cout_a", out_a, gnd, x[SalSizing::kCOut] + c_sr_gate);
  ckt.add_capacitor("Cout_b", out_b, gnd, x[SalSizing::kCOut] + c_sr_gate);
  ckt.add_capacitor("Cdi_a", di_a, gnd, 2e-15 + par.c_junction * x[SalSizing::kWIn]);
  ckt.add_capacitor("Cdi_b", di_b, gnd, 2e-15 + par.c_junction * x[SalSizing::kWIn]);
  ckt.add_capacitor("Ctail", tail, gnd, 2e-15 + par.c_junction * x[SalSizing::kWTail]);
  return ckt;
}

std::vector<double> StrongArmLatchSpice::evaluate(std::span<const double> x,
                                                  const pdk::PvtCorner& corner,
                                                  std::span<const double> h) const {
  const spice::Circuit ckt = build_netlist(x, corner, h);
  // Each pool worker keeps one workspace (the Simulator default): the Newton
  // loop's matrix, RHS, and factorization buffers survive across the
  // thousands of evaluate() calls an optimization run makes on that thread.
  spice::TransientSpec spec;
  spec.t_stop = kTStop;
  spec.dt = kDt;
  spec.record = {"out_a", "out_b"};
  // DC warm start: mismatch draws of one (design, corner) share the first
  // draw's converged operating point as the Newton seed.  The seed only
  // shortens the Newton trajectory (with a cold fallback on failure), so
  // metrics agree with cold evaluation to within the solver's vtol.
  const spice::TransientResult res =
      spice::warm_started_transient(ckt, spec, kSalWarmStartTag, x, corner);
  if (!res.ok) {
    // A non-convergent design is a broken design: the penalty metrics fail
    // every constraint so the optimizer steers away, and the structured
    // report says where the simulation gave up.
    throw EvaluationError(evaluation_failure_from(res.failure), {1.0, 1.0, 1.0, 1.0});
  }
  return metrics_from_transient(res, x, corner, h);
}

std::vector<double> StrongArmLatchSpice::metrics_from_transient(
    const spice::TransientResult& res, std::span<const double> x, const pdk::PvtCorner& corner,
    std::span<const double> h) const {
  const double vdd = corner.vdd;
  const auto& t = res.times;
  const auto& va = res.trace("out_a");
  const auto& vb = res.trace("out_b");

  // Set delay: clock edge to the losing output crossing vdd/2 (the input
  // pair sees +vin on inp, so out_b falls).
  std::vector<double> diff(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) diff[i] = std::abs(va[i] - vb[i]);
  const auto t_dec = spice::first_crossing(t, diff, 0.5 * vdd, spice::CrossDirection::Rising,
                                           kClkRise);
  // SR-latch stage delay retains the behavioral estimate (the SR stage is
  // modeled as capacitive load here).
  const double i_sr = std::max(
      1e-9, pdk::square_law_id(pdk::mos_params(false, corner, x[SalSizing::kLSr],
                                               h.empty() ? 0.0 : h[2 * 9],
                                               h.empty() ? 0.0 : h[2 * 9 + 1]),
                               x[SalSizing::kWSr] / x[SalSizing::kLSr], vdd, 0.5 * vdd));
  const double t_sr = (0.5 * x[SalSizing::kCSr]) * vdd / i_sr;
  // No crossing inside the evaluate window: extrapolate the decision time
  // from the exponential regeneration rate at the end of the window instead
  // of returning a flat sentinel.  The latch separation grows as
  // exp(t / tau); projecting the final separation forward at the measured
  // rate keeps set_delay continuous across the window boundary and gives
  // the optimizer a gradient toward deciding designs — a flat sentinel made
  // every under-driven sizing look equally bad, which is what the old
  // raised input-CM crutch papered over at cold low-voltage corners.
  double t_undecided = kTStop;
  if (!t_dec) {
    const double t1 = kClkFall;
    const double t0 = kClkRise + 0.5 * (kClkFall - kClkRise);
    const double d1 = spice::value_at(t, diff, t1);
    const double d0 = spice::value_at(t, diff, t0);
    if (d1 > d0 && d0 > 0.0) {
      const double rate = std::log(d1 / d0) / (t1 - t0);  // 1/tau
      t_undecided = (t1 - kClkRise) + std::log(0.5 * vdd / d1) / rate;
    }
  }
  const double set_delay = (t_dec ? *t_dec - kClkRise : t_undecided) + t_sr;

  // Reset delay: falling clock edge until *both* outputs are back near vdd.
  // The winning output never crossed down, so measure on min(va, vb).
  std::vector<double> vmin(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) vmin[i] = std::min(va[i], vb[i]);
  const double reset_threshold = 0.9 * vdd;
  double reset_delay = kTStop;
  if (spice::value_at(t, vmin, kClkFall + kEdge) >= reset_threshold) {
    reset_delay = kEdge;  // nothing to recover
  } else if (const auto t_r = spice::first_crossing(t, vmin, reset_threshold,
                                                    spice::CrossDirection::Rising, kClkFall)) {
    reset_delay = *t_r - kClkFall;
  }

  // Power: supply energy over the full evaluate+reset cycle times the clock.
  const double e_cycle = spice::supply_energy(t, res.trace("I(VDD)"), vdd, 0.0, kTStop);
  const double power = std::max(0.0, e_cycle) * behavioral_.conditions().clock_hz;

  // Noise: the analytic kT/C budget from the behavioral model.
  const double noise = behavioral_.evaluate(x, corner, h)[3];

  return {power, set_delay, reset_delay, noise};
}

}  // namespace glova::circuits
