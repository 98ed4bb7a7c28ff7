// Device-parameter model for an advanced 28 nm bulk CMOS process.
//
// These parameters drive both the SPICE MOSFET channel model (EKV,
// spice/mos_model.hpp) and the behavioral circuit evaluators.  The chain is:
//   nominal 28 nm values  ->  process-corner shift (CornerFactors)
//   ->  temperature dependence (mobility ~ T^-1.5, Vth ~ -0.8 mV/K)
//   ->  per-device mismatch (delta_vth [V], delta_beta [relative]).
#pragma once

#include "pdk/corner.hpp"

namespace glova::pdk {

/// Effective square-law parameters of one transistor instance under a given
/// PVT condition and mismatch realization.
struct MosParams {
  double vth = 0.38;     ///< |threshold voltage| [V]
  double kp = 350e-6;    ///< transconductance parameter u*Cox [A/V^2]
  double lambda = 0.10;  ///< channel-length modulation [1/V]
  bool is_pmos = false;
  double temp_k = 300.0;  ///< device temperature [K]; sets the EKV subthreshold slope
};

/// EKV subthreshold slope factor n (bulk, typical): v_char = 2 n vt.
inline constexpr double kEkvSlopeFactor = 1.3;

/// Nominal (TT, 27 C, no mismatch) parameter set for the technology.
struct TechnologyNominal {
  double vth_n = 0.38;       ///< [V]
  double vth_p = 0.42;       ///< magnitude [V]
  double kp_n = 350e-6;      ///< [A/V^2]
  double kp_p = 150e-6;      ///< [A/V^2]
  double lambda0 = 0.12;     ///< [1/V] at L = Lmin
  double l_min = 30e-9;      ///< [m]
  double vth_tc = -0.8e-3;   ///< Vth temperature coefficient [V/K]
  double mobility_exp = 1.5; ///< mobility ~ (T/T0)^-exp
};

[[nodiscard]] const TechnologyNominal& technology_28nm();

/// Compute the effective parameters of a device instance.
/// `delta_vth` shifts the threshold magnitude (positive = slower device);
/// `delta_beta_rel` scales kp multiplicatively (e.g. +0.02 = +2 %).
/// `length` sets channel-length modulation: lambda = lambda0 * Lmin / L.
[[nodiscard]] MosParams mos_params(bool is_pmos, const PvtCorner& corner, double length,
                                   double delta_vth = 0.0, double delta_beta_rel = 0.0);

/// Square-law drain current with channel-length modulation.
/// Voltages are terminal magnitudes referred to the source (vgs, vds >= 0 for
/// "on" operation of either polarity; callers flip signs for PMOS).
[[nodiscard]] double square_law_id(const MosParams& p, double w_over_l, double vgs, double vds);

/// EKV-style smooth drain current: identical to the square law in strong
/// inversion but with a soft subthreshold transition, so behavioral models
/// stay differentiable (and non-zero) when slow corners push devices toward
/// weak inversion.  `temp_k` sets the subthreshold slope via the thermal
/// voltage.  The model is source/drain symmetric: for vds < 0 the terminals
/// swap roles and the current sign flips.
[[nodiscard]] double ekv_id(const MosParams& p, double w_over_l, double vgs, double vds,
                            double temp_k);

/// Transconductance d(ekv_id)/d(vgs), analytically consistent with ekv_id.
/// Recovers k*Vov in strong inversion and Id/(n*vt) in weak inversion, where
/// the classic gm = 2*Id/Vov estimate collapses.  Source/drain symmetric like
/// ekv_id.
[[nodiscard]] double ekv_gm(const MosParams& p, double w_over_l, double vgs, double vds,
                            double temp_k);

// Both below stay on libm on purpose: the behavioral FIA runs them (kPinnedRuns pins it).

/// The smoothed overdrive used by ekv_id: 2 n vt ln(1 + exp(vov / (2 n vt))).
[[nodiscard]] double ekv_overdrive(double vov, double temp_k);

/// d(ekv_overdrive)/d(vov): the logistic sigmoid of vov / (2 n vt).
[[nodiscard]] double ekv_overdrive_slope(double vov, double temp_k);

}  // namespace glova::pdk
