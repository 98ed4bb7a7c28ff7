// The behavioral-vs-SPICE parity grid: realistic design points, PVT
// corners, and the deterministic local-mismatch draw recipe.  Shared by
// tests/test_backend_parity.cpp (which asserts the tolerance bands) and
// tools/probe_parity.cpp (which prints the ratio table the bands are
// re-recorded from), so the recorded bands always correspond to exactly
// the points the test evaluates.
//
// The designs are deliberately *not* design-space midpoints: at multi-pF
// loads the latch never decides inside its clock phase and the reservoir
// never droops, so parity there would compare two failure modes.  They are
// the bench_micro/pinned-regression sizing points, the known-robust
// designs from test_circuits.cpp, and moderate spreads around them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "circuits/registry.hpp"
#include "common/rng.hpp"
#include "pdk/variation.hpp"

namespace glova::parity_grid {

inline std::vector<std::vector<double>> designs_x01(circuits::Testcase tc) {
  switch (tc) {
    case circuits::Testcase::Sal:
      return {
          {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0.01},
          {0.056, 0.504, 0.455, 0.121, 0.174, 0.035, 1.0, 0.0, 0.16, 0.0, 0.061, 0.118, 0.027,
           0.0},
          {0.3, 0.45, 0.3, 0.25, 0.3, 0.15, 0.1, 0.0, 0.05, 0.0, 0.0, 0.05, 0.1, 0.02},
          {0.1, 0.2, 0.15, 0.1, 0.1, 0.05, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.02, 0.005},
      };
    case circuits::Testcase::Fia:
      return {
          {0.05, 0.25, 0.5, 0.3, 0.003, 0.001},
          {0.3, 0.3, 0.1, 0.1, 0.01, 0.005},
          {0.15, 0.4, 0.3, 0.2, 0.02, 0.01},
          {0.5, 0.5, 0.05, 0.05, 0.05, 0.02},
      };
    case circuits::Testcase::DramOcsa:
      return {
          {1.0, 1.0, 1.0, 0.0, 0.0, 0.3, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0},
          {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
          {0.7, 0.6, 0.8, 0.3, 0.4, 0.6, 0.8, 0.7, 0.9, 0.2, 0.8, 0.9},
          {0.3, 0.4, 0.4, 0.6, 0.7, 0.4, 0.3, 0.4, 0.5, 0.6, 0.4, 0.3},
      };
  }
  return {};
}

inline std::vector<pdk::PvtCorner> corners() {
  return {
      pdk::typical_corner(),
      pdk::PvtCorner{pdk::ProcessCorner::SS, 0.8, 85.0, true},
      pdk::PvtCorner{pdk::ProcessCorner::FF, 1.0, -25.0, true},
  };
}

/// The coldest low-voltage corner: slow process, minimum vdd, -40C.  Vth
/// rises ~54 mV over typical here, so mid-rail gate drives sit *below*
/// threshold — a square-law model's hard cutoff cannot evaluate this
/// corner, while the EKV model conducts through weak inversion.  The parity
/// suite appends it to corners().
inline pdk::PvtCorner cold_low_voltage_corner() {
  return pdk::PvtCorner{pdk::ProcessCorner::SS, 0.8, -40.0, true};
}

/// One fixed local-only mismatch draw per design (the offset-relevant
/// statistics), deterministic in the design index.
inline std::vector<double> local_draw(const circuits::Testbench& tb, std::span<const double> x,
                                      std::size_t design_index) {
  Rng rng(100 + design_index);
  const auto layout = tb.mismatch_layout(x, false);
  return pdk::sample_mismatch_set(layout, 1, rng, pdk::GlobalMode::Zero)[0];
}

}  // namespace glova::parity_grid
