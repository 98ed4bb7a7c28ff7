// FIA SPICE testbench: a push-pull inverter pair powered from a floating
// reservoir capacitor.
//
// Phases (all switches are MOSFETs so the DC operating point is solvable
// without initial conditions):
//   hold   [0, kHold):  the reservoir switches clamp res_top to vdd and
//                       res_bot to ground (charging C_res to vdd) and the
//                       output clamps hold out_a/out_b at vdd/2.
//   amplify [kHold, t_stop]: every switch opens; the inverters integrate the
//                       differential probe input onto the load caps while
//                       the floating reservoir droops.
//
// Measurement extraction (the block's Table II metrics):
//   * integration window t_int — first time the rail-to-rail reservoir
//     voltage droops below (1 - reservoir_swing) * vdd;
//   * gain — differential output developed over t_int divided by the probe
//     input; feeds the latch-offset term of the analytic noise budget;
//   * energy per conversion — recharge accounting from the measured droops
//     (reservoir + output loads) plus the analytic gate/overhead charge,
//     via spice::capacitor_recharge_energy.
#include "circuits/spice_backend.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuits/parasitics.hpp"
#include "common/units.hpp"
#include "spice/measure.hpp"
#include "spice/warm_start.hpp"

namespace glova::circuits {

namespace {
// Switches flip at kHold: reservoir floats, output clamps release.
constexpr double kHold = 0.2e-9;
constexpr double kEdge = 20e-12;
// Switch gates are boosted so the NMOS clamps pass vdd/2 with full drive.
constexpr double kBoost = 0.45;
// Fixed (non-sized) switch geometry.
constexpr double kSwitchW = 4e-6;
constexpr double kClampW = 1e-6;
constexpr double kSwitchL = 30e-9;
// Warm-start cache tag (must not collide with the other testbenches).
constexpr std::uint64_t kFiaWarmStartTag = 0xF1A;

/// Effective single-ended output load: the sized cap plus the inverter
/// junction capacitance (exactly the behavioral c_load).  One derivation
/// shared by the netlist construction and the energy accounting.
double fia_output_load(std::span<const double> x) {
  return x[FiaSizing::kCLoad] +
         parasitics_28nm().c_junction * (x[FiaSizing::kWn] + x[FiaSizing::kWp]);
}
}  // namespace

FloatingInverterAmplifierSpice::FloatingInverterAmplifierSpice() = default;

spice::Circuit FloatingInverterAmplifierSpice::build_netlist(std::span<const double> x,
                                                             const pdk::PvtCorner& corner,
                                                             std::span<const double> h) const {
  if (x.size() != FiaSizing::kCount) throw std::invalid_argument("FIA spice: bad sizing vector");
  if (!h.empty() && h.size() != 2 * kFiaDeviceCount) {
    throw std::invalid_argument("FIA spice: bad mismatch vector");
  }
  const double vdd = corner.vdd;
  const FiaConditions& cond = behavioral_.conditions();
  const auto dvth = [&](std::size_t d) { return h.empty() ? 0.0 : h[2 * d]; };
  const auto dbeta = [&](std::size_t d) { return h.empty() ? 0.0 : h[2 * d + 1]; };

  spice::Circuit ckt;
  const auto vdd_n = ckt.node("vdd");
  const auto pc = ckt.node("pc");      // PMOS reservoir-switch gate (low = on)
  const auto rstn = ckt.node("rstn");  // NMOS switch/clamp gate (high = on)
  const auto inp = ckt.node("inp");
  const auto inn = ckt.node("inn");
  const auto res_top = ckt.node("res_top");
  const auto res_bot = ckt.node("res_bot");
  const auto out_a = ckt.node("out_a");
  const auto out_b = ckt.node("out_b");
  const auto vcm_o = ckt.node("vcm_o");
  const auto gnd = spice::Circuit::ground();

  ckt.add_vsource("VDD", vdd_n, gnd, spice::Waveform::dc(vdd));
  const double vcm = cond.vcm_frac * vdd;
  // Controls: pc rises (top switch off) while rstn falls (bottom switch and
  // output clamps off) at the hold -> amplify transition.
  ckt.add_vsource("VPC", pc, gnd,
                  spice::Waveform::pulse(0.0, vdd, kHold, kEdge, kEdge, 1.0, 0.0));
  ckt.add_vsource("VRSTN", rstn, gnd,
                  spice::Waveform::pulse(vdd + kBoost, 0.0, kHold, kEdge, kEdge, 1.0, 0.0));
  ckt.add_vsource("VCMO", vcm_o, gnd, spice::Waveform::dc(0.5 * vdd));
  ckt.add_vsource("VINP", inp, gnd, spice::Waveform::dc(vcm + 0.5 * cond.v_probe));
  ckt.add_vsource("VINN", inn, gnd, spice::Waveform::dc(vcm - 0.5 * cond.v_probe));

  // Device instance order matches FloatingInverterAmplifier::devices():
  //   0 invn_a, 1 invn_b, 2 invp_a, 3 invp_b.
  const auto mos = [&](std::size_t d, bool pmos, std::size_t li) {
    return pdk::mos_params(pmos, corner, x[li], dvth(d), dbeta(d));
  };
  ckt.add_mosfet("Minv_na", out_a, inp, res_bot, mos(0, false, FiaSizing::kLn),
                 x[FiaSizing::kWn], x[FiaSizing::kLn]);
  ckt.add_mosfet("Minv_nb", out_b, inn, res_bot, mos(1, false, FiaSizing::kLn),
                 x[FiaSizing::kWn], x[FiaSizing::kLn]);
  ckt.add_mosfet("Minv_pa", out_a, inp, res_top, mos(2, true, FiaSizing::kLp),
                 x[FiaSizing::kWp], x[FiaSizing::kLp]);
  ckt.add_mosfet("Minv_pb", out_b, inn, res_top, mos(3, true, FiaSizing::kLp),
                 x[FiaSizing::kWp], x[FiaSizing::kLp]);

  // Reservoir precharge switches and output common-mode clamps (fixed
  // geometry, nominal parameters: they are infrastructure, not designables).
  const auto sw_n = pdk::mos_params(false, corner, kSwitchL);
  const auto sw_p = pdk::mos_params(true, corner, kSwitchL);
  ckt.add_mosfet("Msw_top", res_top, pc, vdd_n, sw_p, kSwitchW, kSwitchL);
  ckt.add_mosfet("Msw_bot", res_bot, rstn, gnd, sw_n, kSwitchW, kSwitchL);
  ckt.add_mosfet("Mrst_a", out_a, rstn, vcm_o, sw_n, kClampW, kSwitchL);
  ckt.add_mosfet("Mrst_b", out_b, rstn, vcm_o, sw_n, kClampW, kSwitchL);

  // The floating reservoir and the loads.
  const Parasitics& par = parasitics_28nm();
  const double c_load = fia_output_load(x);
  ckt.add_capacitor("Cres", res_top, res_bot, x[FiaSizing::kCRes]);
  ckt.add_capacitor("Cout_a", out_a, gnd, c_load);
  ckt.add_capacitor("Cout_b", out_b, gnd, c_load);
  const double c_rail = 2e-15 + par.c_junction * (kSwitchW + 2.0 * x[FiaSizing::kWp]);
  ckt.add_capacitor("Crtop", res_top, gnd, c_rail);
  ckt.add_capacitor("Crbot", res_bot, gnd, c_rail);
  return ckt;
}

namespace {
/// FIA transient spec: amplify well past the nominal integration window so
/// the reservoir droop has fully developed when energy is measured.  The
/// timebase comes from the nominal-mismatch analysis, so every draw of one
/// design shares it (which also keeps the DC warm-start cache coherent).
spice::TransientSpec fia_transient_spec(double nominal_t_int) {
  spice::TransientSpec spec;
  const double window = std::clamp(4.0 * nominal_t_int, 0.4e-9, 40e-9);
  spec.t_stop = kHold + window;
  spec.dt = std::clamp(window / 2500.0, 0.5e-12, 16e-12);
  spec.record = {"res_top", "res_bot", "out_a", "out_b"};
  return spec;
}
}  // namespace

std::vector<double> FloatingInverterAmplifierSpice::evaluate(std::span<const double> x,
                                                             const pdk::PvtCorner& corner,
                                                             std::span<const double> h) const {
  const FiaAnalysis nominal = behavioral_.analyze(x, corner, {});

  const spice::Circuit ckt = build_netlist(x, corner, h);
  const spice::TransientSpec spec = fia_transient_spec(nominal.t_int);
  const spice::TransientResult res =
      spice::warm_started_transient(ckt, spec, kFiaWarmStartTag, x, corner);
  if (!res.ok) {
    // A non-convergent design fails every constraint so the optimizer
    // steers away (both metrics are MinimizeBelow); the structured report
    // says where the simulation gave up.
    throw EvaluationError(evaluation_failure_from(res.failure), {1.0, 1.0});
  }
  return metrics_from_transient(res, x, corner, h, spec.t_stop);
}

std::vector<double> FloatingInverterAmplifierSpice::metrics_from_transient(
    const spice::TransientResult& res, std::span<const double> x, const pdk::PvtCorner& corner,
    std::span<const double> h, double t_stop) const {
  // The drawn analysis provides the noise components for this h.
  const FiaAnalysis drawn = behavioral_.analyze(x, corner, h);
  const FiaConditions& cond = behavioral_.conditions();
  const double vdd = corner.vdd;
  const auto& t = res.times;

  // Integration window: rail-to-rail reservoir voltage droops by
  // reservoir_swing * vdd.
  const std::vector<double> rail = spice::difference(res.trace("res_top"), res.trace("res_bot"));
  const auto t_droop = spice::first_crossing(t, rail, (1.0 - cond.reservoir_swing) * vdd,
                                             spice::CrossDirection::Falling, kHold);
  const double t_int = (t_droop ? *t_droop : t_stop) - kHold;

  // Gain: differential output developed over the window / probe input — the
  // measurement is trusted as-is.  (An earlier revision swapped in the
  // analytic EKV gain whenever the reservoir failed to droop, papering over
  // a square-law model's hard cutoff at cold low-voltage corners; under the
  // solver's EKV channel model the simulated inverter itself keeps
  // conducting in sub-threshold, so the crutch is gone and a dead amp
  // reports as dead.)
  const std::vector<double> diff = spice::difference(res.trace("out_a"), res.trace("out_b"));
  const double dv = spice::value_at(t, diff, kHold + t_int) - spice::value_at(t, diff, kHold);
  const double gain = std::max(0.05, std::abs(dv) / cond.v_probe);

  // Energy per conversion: recharge the measured reservoir and load droops,
  // plus the analytic gate/overhead charge (same terms as the behavioral
  // budget, with the full-swing reservoir assumption replaced by the
  // measured droop).  The reservoir recharges from the vdd rail; the
  // outputs are restored by the clamps from the vdd/2 common-mode rail.
  const Parasitics& par = parasitics_28nm();
  const double c_load = fia_output_load(x);
  const double c_gate = 2.0 * par.cox * (x[FiaSizing::kWn] * x[FiaSizing::kLn] +
                                         x[FiaSizing::kWp] * x[FiaSizing::kLp]);
  double energy = spice::capacitor_recharge_energy(x[FiaSizing::kCRes], vdd, vdd, rail.back()) +
                  (c_gate + cond.overhead_cap) * vdd * vdd;
  for (const char* out : {"out_a", "out_b"}) {
    energy +=
        spice::capacitor_recharge_energy(c_load, 0.5 * vdd, res.trace(out).back(), 0.5 * vdd);
  }

  // Noise: the analytic thermal/offset budget of this mismatch draw, with
  // the latch-offset term attenuated by the measured gain.
  const double noise = drawn.noise_given_gain(gain, cond.latch_sigma);
  return {energy, noise};
}

}  // namespace glova::circuits
