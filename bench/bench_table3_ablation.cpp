// Table III reproduction: ablation study on the OCSA+SH DRAM core.
//
// Rows: full GLOVA, w/o ensemble critic (single risk-neutral base model),
// w/o mu-sigma evaluation (always fully verify once the pre-samples pass),
// w/o simulation reordering (natural corner/MC order).  The paper's "-"
// cells (w/o mu-sigma and w/o SR under C) are printed as n/a: under
// corner-only verification there is nothing for those components to save.
// Paper values from Kim et al., DAC 2025, Table III.
#include <cstdio>

#include "bench_common.hpp"

using namespace glova;

namespace {

struct AblationRow {
  const char* label;
  bool ec;        // ensemble critic
  bool mu_sigma;  // mu-sigma evaluation
  bool sr;        // simulation reordering
  // paper {iterations, sims} per verification method (C, C-MC_L, C-MC_G-L);
  // negative = the paper's "-" cell.
  double paper_it[3];
  double paper_sims[3];
};

}  // namespace

int main() {
  bench::BenchOptions options = bench::options_from_env();
  const AblationRow rows[] = {
      {"Proposed", true, true, true, {21, 84, 129}, {390, 6916, 72853}},
      {"w/o EC", false, true, true, {26, 92, 199}, {1218, 18232, 212153}},
      {"w/o mu-sigma", true, false, true, {-1, 101, 239}, {-1, 136217, 476721}},
      {"w/o SR", true, true, false, {-1, -1, -1}, {2448, 253738, 765375}},
  };
  const auto verifs = core::all_verif_methods();

  printf("Table III — ablation study on the OCSA+SH DRAM core (%zu seeds, cap %zu)\n",
         options.seeds, options.max_iterations);
  printf("%-14s | %-26s | %-26s | %-26s\n", "", "C", "C-MC_L", "C-MC_G-L");
  printf("%-14s | %-8s %-8s %-8s | %-8s %-8s %-8s | %-8s %-8s %-8s\n", "variant", "it(p)",
         "it", "succ", "it(p)", "it", "succ", "it(p)", "it", "succ");

  std::vector<std::vector<bench::CellStats>> all;
  for (const AblationRow& row : rows) {
    bench::BenchOptions opt = options;
    opt.use_ensemble_critic = row.ec;
    opt.use_mu_sigma = row.mu_sigma;
    opt.use_reordering = row.sr;
    std::vector<bench::CellStats> cells;
    for (const auto v : verifs) {
      cells.push_back(bench::run_cell(bench::Method::Glova, circuits::Testcase::DramOcsa, v, opt));
    }
    all.push_back(cells);
    printf("%-14s |", row.label);
    for (std::size_t vi = 0; vi < verifs.size(); ++vi) {
      if (row.paper_it[vi] < 0) {
        printf(" %-8s %-8.4g %-8.2f |", "-", cells[vi].mean_iterations, cells[vi].success_rate);
      } else {
        printf(" %-8.4g %-8.4g %-8.2f |", row.paper_it[vi], cells[vi].mean_iterations,
               cells[vi].success_rate);
      }
    }
    printf("\n");
  }

  printf("\n# Simulation (paper vs ours)\n");
  for (std::size_t ri = 0; ri < 4; ++ri) {
    printf("%-14s |", rows[ri].label);
    for (std::size_t vi = 0; vi < verifs.size(); ++vi) {
      if (rows[ri].paper_sims[vi] < 0) {
        printf(" %-10s %-10.6g |", "-", all[ri][vi].mean_simulations);
      } else {
        printf(" %-10.6g %-10.6g |", rows[ri].paper_sims[vi], all[ri][vi].mean_simulations);
      }
    }
    printf("\n");
  }
  printf("\nExpected shape: every ablation raises simulations; w/o EC raises iterations most;\n"
         "w/o mu-sigma and w/o SR blow up the verification-phase simulation count.\n");
  return 0;
}
