// Operational configuration (paper Table I): how the chosen verification
// method selects predefined corners, mismatch variances, and sample counts
// in the optimization and verification phases.
//
//   method   | predefined corner | global var | local var | N'_opt | N_verif/corner
//   C        | P,V,T             | 0          | 0         | 1      | 1      (30 sims)
//   C-MC_L   | P,V,T             | 0          | Sigma_L   | N'     | 100    (3,000 sims)
//   C-MC_G-L | V,T               | Sigma_G    | Sigma_L   | N'     | 1,000  (6,000 sims)
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuits/testbench.hpp"
#include "common/rng.hpp"
#include "pdk/corner.hpp"
#include "pdk/variation.hpp"

namespace glova::core {

enum class VerifMethod { C, C_MCL, C_MCGL };

[[nodiscard]] const char* to_string(VerifMethod method);

/// Inverse of to_string (case-insensitive); nullopt for unknown names.
[[nodiscard]] std::optional<VerifMethod> verif_method_from_string(std::string_view name);

/// All methods in Table I / Table II column order.
[[nodiscard]] std::vector<VerifMethod> all_verif_methods();

struct OperationalConfig {
  VerifMethod method = VerifMethod::C;
  bool predefined_process = true;  ///< Table I column "P"
  bool global_mismatch = false;    ///< Sigma_Global enabled
  bool local_mismatch = false;     ///< Sigma_Local enabled
  std::size_t n_opt = 1;           ///< N' mismatch samples per optimization step
  std::size_t n_verif = 1;         ///< N samples per corner in full verification
  std::vector<pdk::PvtCorner> corners;  ///< the predefined set T (k corners)

  [[nodiscard]] std::size_t corner_count() const { return corners.size(); }

  /// k * N: total simulations of one full verification pass.
  [[nodiscard]] std::size_t full_verification_sims() const {
    return corner_count() * n_verif;
  }

  /// Sampling mode for the *optimization* phase: Eq. (3) literal — one
  /// global draw centers each sampled set (one die per iteration); the
  /// ensemble critic absorbs the resulting worst-case uncertainty.
  [[nodiscard]] pdk::GlobalMode sampling_mode() const;

  /// Sampling mode for the *verification* phase: every MC sample draws a
  /// fresh global condition, so the 1K global-local sweep covers die-to-die
  /// spread the way a wafer would (see DESIGN.md, interpretation choices).
  [[nodiscard]] pdk::GlobalMode verification_sampling_mode() const;

  /// True when mismatch conditions exist at all (C has none).
  [[nodiscard]] bool has_mismatch() const { return local_mismatch || global_mismatch; }

  /// N' optimization-phase mismatch conditions for one design (Eq. 3 under
  /// sampling_mode(); n empty vectors — nominal — when the method has no
  /// mismatch).  Shared by every optimizer's step.
  [[nodiscard]] std::vector<std::vector<double>> sample_conditions(
      const circuits::Testbench& testbench, std::span<const double> x_phys, std::size_t n,
      Rng& rng) const;

  /// Standard configuration for a verification method.
  /// `n_opt_samples` is the paper's optimization-phase sample size (3).
  /// `corner_filter` (RunSpec `corner_filter`) restricts the method's
  /// predefined corner set: "all" keeps it, "cold_lv" keeps only the
  /// coldest low-voltage condition (minimum vdd, minimum temperature,
  /// slow process if the set has one) — the corner a square-law model's
  /// hard cutoff cannot evaluate and the EKV model exists for.
  static OperationalConfig for_method(VerifMethod method, std::size_t n_opt_samples = 3,
                                      std::string_view corner_filter = "all");
};

}  // namespace glova::core
