// StrongARM latch (SAL) testcase [24] — paper Sec. VI-A.
//
// Sizing vector (14 parameters, design space ~10^28):
//   W_tail, W_in, W_xn, W_xp, W_pre, W_sr   in [0.28, 32.8] um
//   L_tail, L_in, L_xn, L_xp, L_pre, L_sr   in [0.03, 0.33] um
//   C_out, C_sr                              in [0.005, 5.5] pF
// Metrics / constraints:
//   power <= 40 uW, set delay <= 4 ns, reset delay <= 4 ns, noise <= 120 uV.
//
// The behavioral model follows the standard SAL analysis (Razavi, SSC
// Magazine 2015): a tail-current integration phase until the cross-coupled
// pair takes over, exponential regeneration with time constant C/gm, a
// PMOS precharge reset, and kT/C-limited input-referred noise with a
// mismatch-induced offset contribution.  All device parameters flow through
// the pdk so PVT corners and (global/local) mismatch shift the metrics the
// same way they would in SPICE.
#pragma once

#include "circuits/testbench.hpp"

namespace glova::circuits {

/// Indices into the SAL sizing vector.
struct SalSizing {
  enum : std::size_t {
    kWTail = 0, kWIn, kWXn, kWXp, kWPre, kWSr,
    kLTail, kLIn, kLXn, kLXp, kLPre, kLSr,
    kCOut, kCSr,
    kCount
  };
};

/// Fixed testbench conditions for the SAL.
struct SalConditions {
  double clock_hz = 40e6;       ///< evaluation clock
  double v_input_diff = 50e-3;  ///< differential input drive [V]
  double leakage_per_um = 5e-9; ///< off-state leakage [A per um of width]
  /// Input common mode as a fraction of vdd (SPICE testbench only — the
  /// behavioral model is CM-agnostic).  Mid-rail, matching the paper's
  /// testbench.  (An earlier revision biased this to 0.7 so the input pair
  /// stayed out of a square-law model's hard sub-Vth cutoff at cold
  /// low-voltage corners; the solver's EKV channel model conducts
  /// continuously through weak inversion, so the crutch default is gone.
  /// The knob stays for CM-sensitivity studies.)
  double input_cm_frac = 0.5;
};

class StrongArmLatch final : public Testbench {
 public:
  StrongArmLatch();

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const SizingSpec& sizing() const override { return sizing_; }
  [[nodiscard]] const PerformanceSpec& performance() const override { return performance_; }

  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double> x,
                                                    bool global_enabled) const override;

  /// Returns {power [W], set delay [s], reset delay [s], noise [V]}.
  [[nodiscard]] std::vector<double> evaluate(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h) const override;

  /// Device instances (11 transistors) for geometry-dependent mismatch.
  [[nodiscard]] std::vector<pdk::DeviceGeometry> devices(std::span<const double> x) const;

  [[nodiscard]] const SalConditions& conditions() const { return conditions_; }

 private:
  std::string name_ = "StrongARM latch";
  SizingSpec sizing_;
  PerformanceSpec performance_;
  SalConditions conditions_;
};

}  // namespace glova::circuits
