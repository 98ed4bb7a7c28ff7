// Dev probe (CMake target `probe_parity`): prints the behavioral-vs-SPICE
// metric ratio table over the shared parity grid, for re-recording the
// tolerance bands in tests/test_backend_parity.cpp.  The grid, corners, and
// mismatch draws come from tests/backend_parity_grid.hpp, so the printed
// ratios correspond exactly to the points the test asserts.
//
// The SPICE backend runs the solver's one channel model (EKV), and the
// cold low-voltage corner the parity rows assert on is appended to the
// grid's corners.  Argument `h`: use the deterministic local-mismatch draw
// instead of nominal.
#include <cstdio>
#include <cstring>
#include <vector>

#include "backend_parity_grid.hpp"
#include "circuits/registry.hpp"

using namespace glova;

int main(int argc, char** argv) {
  bool with_h = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "h") == 0) with_h = true;
  }
  for (const auto tc : circuits::all_testcases()) {
    const auto beh = circuits::make_testbench(tc, circuits::Backend::Behavioral);
    const auto spc = circuits::make_testbench(tc, circuits::Backend::Spice);
    const auto& sz = beh->sizing();
    std::printf("=== %s ===\n", circuits::to_string(tc));
    const auto grid = parity_grid::designs_x01(tc);
    auto corners = parity_grid::corners();
    corners.push_back(parity_grid::cold_low_voltage_corner());
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
      const auto x = sz.denormalize(grid[gi]);
      const std::vector<double> h =
          with_h ? parity_grid::local_draw(*beh, x, gi) : std::vector<double>{};
      for (std::size_t ci = 0; ci < corners.size(); ++ci) {
        const auto mb = beh->evaluate(x, corners[ci], h);
        std::vector<double> ms;
        try {
          ms = spc->evaluate(x, corners[ci], h);
        } catch (const circuits::EvaluationError& e) {
          std::printf("g%zu c%zu :  FAILED (%s)\n", gi, ci, e.failure().stage.c_str());
          continue;
        }
        std::printf("g%zu c%zu :", gi, ci);
        for (std::size_t mi = 0; mi < mb.size(); ++mi) {
          std::printf("  m%zu %.4g/%.4g r=%.3f", mi, ms[mi], mb[mi],
                      mb[mi] != 0 ? ms[mi] / mb[mi] : -1.0);
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}
