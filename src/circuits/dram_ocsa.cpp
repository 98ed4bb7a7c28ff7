#include "circuits/dram_ocsa.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuits/parasitics.hpp"
#include "common/units.hpp"
#include "pdk/mos_params.hpp"

namespace glova::circuits {

using units::literals::operator""_um;
using units::literals::operator""_mV;
using units::literals::operator""_fJ;

namespace {

constexpr std::size_t kDeviceCount = kDramDeviceCount;
constexpr std::size_t kArrayCoords = kDramArrayCoords;

struct InstanceRole {
  const char* name;
  bool is_pmos;
  std::size_t w_index;
  std::size_t l_index;
};

constexpr InstanceRole kInstances[kDeviceCount] = {
    {"xn_a", false, DramSizing::kWXn, DramSizing::kLXn},
    {"xn_b", false, DramSizing::kWXn, DramSizing::kLXn},
    {"xp_a", true, DramSizing::kWXp, DramSizing::kLXp},
    {"xp_b", true, DramSizing::kWXp, DramSizing::kLXp},
    {"ocs_a", false, DramSizing::kWOcs, DramSizing::kLOcs},
    {"ocs_b", false, DramSizing::kWOcs, DramSizing::kLOcs},
    {"csel", false, DramSizing::kWCsel, DramSizing::kLCsel},
    {"nsa", false, DramSizing::kWNsa, DramSizing::kLNsa},
    {"psa", true, DramSizing::kWPsa, DramSizing::kLPsa},
};

// Mismatch coordinate indices of the array extension.
constexpr std::size_t kIdxVcell = kDramIdxVcell;
constexpr std::size_t kIdxCs = kDramIdxCs;
constexpr std::size_t kIdxCbl = kDramIdxCbl;

}  // namespace

DramArrayCaps dram_array_caps(const DramConditions& cond, std::span<const double> x,
                              std::span<const double> h) {
  if (x.size() != DramSizing::kCount) throw std::invalid_argument("DRAM: bad sizing vector");
  if (!h.empty() && h.size() != kDramDeviceCount * 2 + kDramArrayCoords) {
    throw std::invalid_argument("DRAM: bad mismatch vector");
  }
  const Parasitics& par = parasitics_28nm();
  const double dcs = h.empty() ? 0.0 : h[kIdxCs];
  const double dcbl = h.empty() ? 0.0 : h[kIdxCbl];
  DramArrayCaps caps;
  caps.cs = cond.cs * std::max(0.5, 1.0 + dcs);
  caps.cbl = cond.cbl0 * std::max(0.5, 1.0 + dcbl) +
             par.c_junction * (x[DramSizing::kWCsel] + x[DramSizing::kWXn] +
                               x[DramSizing::kWXp] + 2.0 * x[DramSizing::kWOcs]);
  return caps;
}

DramOcsaSubhole::DramOcsaSubhole() {
  sizing_.names = {"W_xn", "W_xp", "W_ocs", "W_csel", "W_nsa", "W_psa",
                   "L_xn", "L_xp", "L_ocs", "L_csel", "L_nsa", "L_psa"};
  sizing_.lower.assign(DramSizing::kCount, 0.0);
  sizing_.upper.assign(DramSizing::kCount, 0.0);
  // OCSA widths are pitch-limited; SH drivers are wide.
  for (const std::size_t i : {DramSizing::kWXn, DramSizing::kWXp, DramSizing::kWOcs,
                              DramSizing::kWCsel}) {
    sizing_.lower[i] = 0.28_um;
    sizing_.upper[i] = 1.028_um;
  }
  for (const std::size_t i : {DramSizing::kWNsa, DramSizing::kWPsa}) {
    sizing_.lower[i] = 5.0_um;
    sizing_.upper[i] = 15.0_um;
  }
  for (std::size_t i = DramSizing::kLXn; i < DramSizing::kCount; ++i) {
    sizing_.lower[i] = 0.03_um;
    sizing_.upper[i] = 0.06_um;
  }

  performance_.metrics = {
      MetricSpec{"dVD0", "mV", units::milli, 85.0_mV, Sense::MaximizeAbove},
      MetricSpec{"dVD1", "mV", units::milli, 85.0_mV, Sense::MaximizeAbove},
      MetricSpec{"energy_per_bit", "fJ", units::femto, 30.0_fJ, Sense::MinimizeBelow},
  };
}

std::vector<pdk::DeviceGeometry> DramOcsaSubhole::devices(std::span<const double> x) const {
  if (x.size() != DramSizing::kCount) throw std::invalid_argument("DRAM: bad sizing vector");
  std::vector<pdk::DeviceGeometry> devs;
  devs.reserve(kDeviceCount);
  for (const InstanceRole& role : kInstances) {
    devs.push_back(pdk::DeviceGeometry{role.name, role.is_pmos, x[role.w_index], x[role.l_index]});
  }
  return devs;
}

pdk::MismatchLayout DramOcsaSubhole::mismatch_layout(std::span<const double> x,
                                                     bool global_enabled) const {
  pdk::MismatchLayout layout =
      pdk::build_layout(devices(x), pdk::PelgromConstants{}, pdk::GlobalSigmas{}, global_enabled);
  // Cell-array coordinates: stored-level spread and capacitor spread.  These
  // dominate the statistics of the DRAM core ("extensive mismatches").
  layout.names.push_back("array.dvcell");
  layout.local_sigma.push_back(conditions_.sigma_vcell_local);
  layout.global_sigma.push_back(global_enabled ? conditions_.sigma_vcell_global : 0.0);
  layout.names.push_back("array.dcs");
  layout.local_sigma.push_back(conditions_.sigma_cs_local);
  layout.global_sigma.push_back(global_enabled ? conditions_.sigma_cs_global : 0.0);
  layout.names.push_back("array.dcbl");
  layout.local_sigma.push_back(conditions_.sigma_cbl_local);
  layout.global_sigma.push_back(global_enabled ? conditions_.sigma_cbl_global : 0.0);
  return layout;
}

std::vector<double> DramOcsaSubhole::evaluate(std::span<const double> x,
                                              const pdk::PvtCorner& corner,
                                              std::span<const double> h) const {
  if (x.size() != DramSizing::kCount) throw std::invalid_argument("DRAM: bad sizing vector");
  if (!h.empty() && h.size() != kDeviceCount * 2 + kArrayCoords) {
    throw std::invalid_argument("DRAM: bad mismatch vector");
  }
  const Parasitics& par = parasitics_28nm();
  const DramConditions& cond = conditions_;
  const double vdd = corner.vdd;
  const double temp_k = corner.temp_k();

  std::vector<pdk::MosParams> p(kDeviceCount);
  for (std::size_t d = 0; d < kDeviceCount; ++d) {
    const InstanceRole& role = kInstances[d];
    const double dvth = h.empty() ? 0.0 : h[2 * d];
    const double dbeta = h.empty() ? 0.0 : h[2 * d + 1];
    p[d] = pdk::mos_params(role.is_pmos, corner, x[role.l_index], dvth, dbeta);
  }
  const auto wol = [&](std::size_t d) {
    const InstanceRole& role = kInstances[d];
    return x[role.w_index] / x[role.l_index];
  };
  const double dvcell = h.empty() ? 0.0 : h[kIdxVcell];

  // --- charge sharing: cell onto the (heavily loaded) bitline ---
  const auto [cs, cbl] = dram_array_caps(cond, x, h);
  const double ratio = cs / (cs + cbl);
  const double vpre = 0.5 * vdd;
  const double v1 = cond.v1_frac * vdd + dvcell;
  const double v0 = cond.v0_frac * vdd + dvcell;
  const double signal0 = std::max(0.0, (vpre - v0) * ratio);
  const double signal1 = std::max(0.0, (v1 - vpre) * ratio);

  // --- SA offset with offset cancellation ---
  double offset_raw = 0.0;   // signed: > 0 favors reading '0', hurts '1'
  double inj_mismatch = 0.0;
  if (!h.empty()) {
    const double gm_ratio = std::sqrt((p[2].kp * wol(2)) / std::max(1e-12, p[0].kp * wol(0)));
    offset_raw = (h[2 * 0] - h[2 * 1]) + gm_ratio * (h[2 * 2] - h[2 * 3]);
    inj_mismatch = 0.1 * std::abs(h[2 * 4] - h[2 * 5]);
  }
  const double k_oc = x[DramSizing::kWOcs] / (x[DramSizing::kWOcs] + cond.oc_half_width);
  const double residual_offset = offset_raw * (1.0 - k_oc);
  // Charge injection pedestal of the OC switches (differential fraction).
  const double v_inj = 0.2 * par.cox * x[DramSizing::kWOcs] * x[DramSizing::kLOcs] * vdd / cbl +
                       inj_mismatch;

  // --- subhole drivers: shared-rail drive vs common-mode kickback ---
  const double c_san = cond.n_shared_sa *
                       (cond.c_san_fixed +
                        0.5 * par.c_junction * (x[DramSizing::kWXn] + x[DramSizing::kWXp]));
  const double i_need = c_san * (0.5 * vdd) / cond.t_overlap;
  const double i_nsa = pdk::ekv_id(p[7], wol(7), vdd, 0.3 * vdd, temp_k);
  const double i_psa = pdk::ekv_id(p[8], wol(8), vdd, 0.3 * vdd, temp_k);
  const double frac_n = i_nsa / (i_nsa + i_need);
  const double frac_p = i_psa / (i_psa + i_need);
  const double kick_n = cond.k_kick * i_nsa * cond.t_ramp / c_san;
  const double kick_p = cond.k_kick * i_psa * cond.t_ramp / c_san;

  // --- regeneration boost during the overlap window ---
  // Once the rails split, the cross pair's gate drive approaches the full
  // rail (the opposing bitline swings away), so evaluate at 0.75*vdd.
  const double vov_reg = 0.75 * vdd;
  const double gm_xn = pdk::ekv_gm(p[0], wol(0), vov_reg, 0.25 * vdd, temp_k);
  const double gm_xp = pdk::ekv_gm(p[2], wol(2), vov_reg, 0.25 * vdd, temp_k);
  const double g0 = std::min(cond.gain_cap, gm_xn * cond.t_overlap / (cs + cbl) * frac_n);
  const double g1 = std::min(cond.gain_cap, gm_xp * cond.t_overlap / (cs + cbl) * frac_p);

  // --- sensing margins (positive residual offset favors '0', hurts '1') ---
  const double dvd0 =
      std::max(1e-6, (signal0 - std::max(0.0, -residual_offset) - v_inj - kick_p) * (1.0 + g0));
  const double dvd1 =
      std::max(1e-6, (signal1 - std::max(0.0, residual_offset) - v_inj - kick_n) * (1.0 + g1));

  // --- energy per 1-bit sensing ---
  const double e_bl = 0.60 * (cs + cbl) * vdd * vdd;  // develop + restore + precharge
  const double e_sa =
      par.cox * vdd * vdd *
      (x[DramSizing::kWXn] * x[DramSizing::kLXn] + x[DramSizing::kWXp] * x[DramSizing::kLXp] +
       2.0 * x[DramSizing::kWOcs] * x[DramSizing::kLOcs] +
       x[DramSizing::kWCsel] * x[DramSizing::kLCsel]);
  const double e_rail = (c_san / cond.n_shared_sa) * vdd * vdd;
  // Subhole driver gate + crowbar energy amortized over the shared SAs.
  const double e_driver =
      (par.cox * (x[DramSizing::kWNsa] * x[DramSizing::kLNsa] +
                  x[DramSizing::kWPsa] * x[DramSizing::kLPsa]) *
           vdd * vdd +
       0.01 * (i_nsa + i_psa) * cond.t_ramp * vdd) /
      cond.n_shared_sa * 64.0;  // 64 activated bits share one driver pair
  const double energy = e_bl + e_sa + e_rail + e_driver;

  return {dvd0, dvd1, energy};
}

}  // namespace glova::circuits
