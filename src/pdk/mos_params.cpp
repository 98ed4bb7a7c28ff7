#include "pdk/mos_params.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace glova::pdk {

const TechnologyNominal& technology_28nm() {
  static const TechnologyNominal tech{};
  return tech;
}

MosParams mos_params(bool is_pmos, const PvtCorner& corner, double length, double delta_vth,
                     double delta_beta_rel) {
  const TechnologyNominal& tech = technology_28nm();
  const CornerFactors factors =
      corner.process_predefined ? corner_factors(corner.process) : CornerFactors{};

  MosParams p;
  p.is_pmos = is_pmos;

  const double t_ratio = corner.temp_k() / units::kRoomTemperatureK;
  const double mobility_scale = std::pow(t_ratio, -tech.mobility_exp);
  const double vth_temp_shift = tech.vth_tc * (corner.temp_k() - units::kRoomTemperatureK);

  if (is_pmos) {
    p.vth = tech.vth_p + factors.vth_p_shift + vth_temp_shift + delta_vth;
    p.kp = tech.kp_p * factors.kp_p_mult * mobility_scale * (1.0 + delta_beta_rel);
  } else {
    p.vth = tech.vth_n + factors.vth_n_shift + vth_temp_shift + delta_vth;
    p.kp = tech.kp_n * factors.kp_n_mult * mobility_scale * (1.0 + delta_beta_rel);
  }
  p.vth = std::max(0.05, p.vth);  // keep devices enhancement-mode
  p.kp = std::max(1e-6, p.kp);
  p.lambda = tech.lambda0 * tech.l_min / std::max(length, tech.l_min);
  p.temp_k = corner.temp_k();
  return p;
}

double square_law_id(const MosParams& p, double w_over_l, double vgs, double vds) {
  const double vov = vgs - p.vth;
  if (vov <= 0.0 || vds <= 0.0) return 0.0;
  const double k = p.kp * w_over_l;
  if (vds < vov) {
    // triode
    return k * (vov - 0.5 * vds) * vds * (1.0 + p.lambda * vds);
  }
  // saturation
  return 0.5 * k * vov * vov * (1.0 + p.lambda * vds);
}

double ekv_overdrive(double vov, double temp_k) {
  const double v_char = 2.0 * kEkvSlopeFactor * units::thermal_voltage(temp_k);
  // Numerically safe softplus.
  const double z = vov / v_char;
  double softplus = 0.0;
  if (z > 30.0) {
    softplus = z;
  } else {
    softplus = std::log1p(std::exp(z));
  }
  return v_char * softplus;
}

double ekv_overdrive_slope(double vov, double temp_k) {
  const double v_char = 2.0 * kEkvSlopeFactor * units::thermal_voltage(temp_k);
  const double z = vov / v_char;
  if (z > 30.0) return 1.0;
  if (z < -30.0) return std::exp(z);
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double ekv_id(const MosParams& p, double w_over_l, double vgs, double vds, double temp_k) {
  if (vds < 0.0) {
    // Symmetric device: swap source/drain roles, flip the current sign.
    return -ekv_id(p, w_over_l, vgs - vds, -vds, temp_k);
  }
  const double vov_eff = ekv_overdrive(vgs - p.vth, temp_k);
  const double k = p.kp * w_over_l;
  if (vds < vov_eff) {
    return k * (vov_eff - 0.5 * vds) * vds * (1.0 + p.lambda * vds);
  }
  return 0.5 * k * vov_eff * vov_eff * (1.0 + p.lambda * vds);
}

double ekv_gm(const MosParams& p, double w_over_l, double vgs, double vds, double temp_k) {
  if (vds < 0.0) {
    return -ekv_gm(p, w_over_l, vgs - vds, -vds, temp_k);
  }
  const double vov_eff = ekv_overdrive(vgs - p.vth, temp_k);
  const double slope = ekv_overdrive_slope(vgs - p.vth, temp_k);
  const double k = p.kp * w_over_l;
  const double clm = 1.0 + p.lambda * vds;
  if (vds < vov_eff) {
    return k * vds * clm * slope;  // triode
  }
  return k * vov_eff * clm * slope;  // saturation
}

}  // namespace glova::pdk
