// The MOSFET channel kernel of the SPICE solver: every channel evaluation of
// the Newton loop, its KCL residual and its branch-current recovery
// (simulator.cpp) runs through it.
//
// The solver has one channel model: the EKV-style continuous model,
// forward-minus-reverse softplus interpolation with characteristic voltage
// 2*n*vt, so the channel conducts continuously from weak through strong
// inversion and gm/gds stay consistent analytic derivatives of Id.  A
// StampPlan evaluates all of its channels at once, in three passes:
//   orient  one device at a time: PMOS mirror and source/drain swap, writing
//           the two EKV arguments zf, zr into SoA lanes (ChannelLanes);
//   lanes   softplus and sigmoid of every lane in one branch-free vector loop
//           (softplus_sigmoid, channel.cpp), from +, -, *, / and bit
//           operations only: no channel evaluation calls libm, and the
//           channel's bits depend on neither the build's vector width nor
//           the C library;
//   finish  one device at a time: (i_ds, d_vg, d_vd, d_vs) for the stamp.
// mos_linearize is the same three passes on one lane.  The square law beside
// the kernel is the strong-inversion reference the model tests compare
// against; the solver never evaluates it.  See
// docs/architecture.md#mos-models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pdk/mos_params.hpp"

namespace glova::spice {

/// Linearized MOSFET: drain-to-source current and its partial derivatives
/// with respect to the gate, drain and source node voltages.
struct MosLinearization {
  double i_ds = 0.0;
  double d_vg = 0.0;
  double d_vd = 0.0;
  double d_vs = 0.0;
};

/// One NMOS-oriented square-law evaluation (vds >= 0 assumed by the caller):
/// current and (gm, gds).
struct NmosEval {
  double id = 0.0;
  double gm = 0.0;
  double gds = 0.0;
};

/// Square law with a hard sub-Vth cutoff: the strong-inversion reference
/// for the EKV channel in the model tests.
inline NmosEval nmos_square_law(const pdk::MosParams& p, double w_over_l, double vgs, double vds) {
  NmosEval e;
  const double vov = vgs - p.vth;
  // Cutoff is a gate condition only.  vds == 0 must land in the triode
  // branch: the current is zero there but the channel conductance is
  // k*Vov, and stamping gds = 0 instead starves Newton of the very
  // derivative it needs to move a pass-gate node off equal bias.
  if (vov <= 0.0) return e;  // cutoff
  const double k = p.kp * w_over_l;
  if (vds < vov) {
    // Triode region.
    const double clm = 1.0 + p.lambda * vds;
    e.id = k * (vov - 0.5 * vds) * vds * clm;
    e.gm = k * vds * clm;
    e.gds = k * ((vov - vds) * clm + (vov - 0.5 * vds) * vds * p.lambda);
  } else {
    // Saturation.
    const double clm = 1.0 + p.lambda * vds;
    e.id = 0.5 * k * vov * vov * clm;
    e.gm = k * vov * clm;
    e.gds = 0.5 * k * vov * vov * p.lambda;
  }
  return e;
}

/// One channel's constants, computed once when a StampPlan is built.
struct MosChannel {
  double polarity = 1.0;    ///< +1 NMOS, -1 PMOS (evaluated as NMOS on mirrored voltages)
  double vth = 0.0;         ///< [V] threshold magnitude
  double lambda = 0.0;      ///< [1/V] channel-length modulation
  double v_char = 0.0;      ///< [V] 2 n vt
  double inv_v_char = 0.0;  ///< [1/V] 1 / v_char
  double k = 0.0;           ///< [A/V^2] kp * W/L
};

[[nodiscard]] MosChannel mos_channel(const pdk::MosParams& params, double w_over_l);

/// Lanes of one vector of the lane pass.  Lane arrays are padded to a
/// multiple of it, so the pass has no scalar remainder loop.
inline constexpr std::size_t kChannelLaneWidth = 8;

/// softplus(z) = ln(1 + e^z) and sigmoid(z) = e^z / (1 + e^z) of every lane.
/// Both keep the model's cutoffs: above z = 30 they return z and 1 exactly,
/// below z = -30 both return e^z, and below z = -708 both return 0 (no
/// subnormal intermediate or output).  A NaN lane gives NaN outputs.  Within
/// 4 ulp of glibc's log1p(exp(z)) and 2 ulp of its ez / (1 + ez)
/// (MosModels.ChannelKernelMatchesLibm).  All three spans have the same size,
/// a multiple of kChannelLaneWidth; throws std::invalid_argument otherwise.
void softplus_sigmoid(std::span<const double> z, std::span<double> softplus,
                      std::span<double> sigmoid);

/// The lane scratch of the channel kernel for a set of channels numbered
/// 0..count-1: orient() each, evaluate() once, then finish() each.  Reused
/// across passes without allocating once its capacity covers the count
/// (each SimulatorWorkspace holds one).
class ChannelLanes {
 public:
  /// Size the lanes for `count` channels and zero the padding lanes.
  void prepare(std::size_t count);

  /// Orient pass for channel `i` at terminal voltages (vg, vd, vs): mirror
  /// a PMOS, swap source and drain when vd < vs (the channel is symmetric),
  /// and write zf = (Vgs - Vth) / v_char, zr = zf - Vds / v_char.
  void orient(std::size_t i, const MosChannel& c, double vg, double vd, double vs) {
    vg *= c.polarity;
    vd *= c.polarity;
    vs *= c.polarity;
    const bool forward = vd >= vs;
    // Swapped: the physical source terminal acts as the channel drain.
    const double v_source = forward ? vs : vd;
    const double vgs = vg - v_source;
    const double vds = (forward ? vd : vs) - v_source;
    z_[i] = (vgs - c.vth) * c.inv_v_char;
    z_[count_ + i] = (vgs - c.vth - vds) * c.inv_v_char;
    vds_[i] = vds;
    forward_[i] = forward ? 1 : 0;
  }

  /// Lane pass: softplus and sigmoid of every oriented lane.
  void evaluate() { softplus_sigmoid(z_, softplus_, sigmoid_); }

  /// Finish pass for channel `i`, in the forward-minus-reverse form
  ///
  ///   Id = (k/2) * v_char^2 * [sp(zf)^2 - sp(zr)^2] * (1 + lambda*vds)
  ///
  /// with sp = softplus and its derivative sigmoid.  Strong inversion
  /// recovers the square law exactly in triode and to well under 0.1% in
  /// saturation (the reverse term decays as e^(2*zr)); weak inversion gives
  /// the exponential characteristic with gm = Id/(n*vt).
  ///
  /// The forward-minus-reverse split — rather than a smoothed overdrive
  /// bolted onto the square-law branch structure — is what keeps Newton
  /// stable: *both* terminal derivatives stay exponentially alive through
  /// weak inversion, so gds never collapses to the bare lambda slope.  (A
  /// smoothed-overdrive variant leaves a reverse-saturated weak channel with
  /// gds ~ lambda*Id ~ 1e-11 S next to an exponential forward slope; Newton
  /// then limit-cycles across the source/drain swap point — observed on the
  /// SAL amplify-phase operating point.)
  [[nodiscard]] MosLinearization finish(std::size_t i, const MosChannel& c) const {
    const double spf = softplus_[i];
    const double sigf = sigmoid_[i];
    const double spr = softplus_[count_ + i];
    const double sigr = sigmoid_[count_ + i];
    const double vds = vds_[i];
    const double clm = 1.0 + c.lambda * vds;
    const double i0 = 0.5 * c.k * c.v_char * c.v_char * (spf * spf - spr * spr);
    const double id = i0 * clm;
    const double gm = c.k * c.v_char * (spf * sigf - spr * sigr) * clm;
    const double gds = c.k * c.v_char * spr * sigr * clm + i0 * c.lambda;
    MosLinearization lin;
    if (forward_[i] != 0) {
      lin.i_ds = id;
      lin.d_vg = gm;
      lin.d_vd = gds;
      lin.d_vs = -(gm + gds);
    } else {
      lin.i_ds = -id;
      lin.d_vg = -gm;
      lin.d_vs = -gds;
      lin.d_vd = gm + gds;
    }
    // The PMOS mirror flips the current sign; the chain rule cancels the
    // sign on the derivatives.
    lin.i_ds *= c.polarity;
    return lin;
  }

 private:
  std::size_t count_ = 0;
  std::vector<double> z_;         ///< zf of channel i at i, zr at count_ + i; padded
  std::vector<double> softplus_;  ///< softplus of each z_ lane
  std::vector<double> sigmoid_;   ///< sigmoid of each z_ lane
  std::vector<double> vds_;       ///< oriented drain-source voltage (>= 0)
  std::vector<std::uint8_t> forward_;  ///< 0 when source and drain were swapped
};

/// Full linearization of one device, either polarity: a one-lane pass of the
/// channel kernel, so it equals a StampPlan's evaluation bit for bit.  For
/// tests and one-off evaluations; the solver runs its plan's pass.
[[nodiscard]] MosLinearization mos_linearize(const pdk::MosParams& params, double w_over_l,
                                             double vg, double vd, double vs);

/// Drain-to-source current only.
[[nodiscard]] inline double mos_current(const pdk::MosParams& params, double w_over_l, double vg,
                                        double vd, double vs) {
  return mos_linearize(params, w_over_l, vg, vd, vs).i_ds;
}

}  // namespace glova::spice
