// Process-wide simulator counters (relaxed atomics, summed over every
// thread), mirroring the warm-start statistics pattern: the simulator notes
// events here and core::EvaluationEngine surfaces them through EngineStats
// as deltas against a construction-time snapshot.
#pragma once

#include <cstdint>

namespace glova::spice {

struct SpiceCounters {
  /// Retired batch/bypass counters, always 0: kept because e2ebench/glova_e2e.cpp reads them.
  std::uint64_t batch_groups = 0;
  std::uint64_t batch_lanes = 0;
  std::uint64_t bypass_solves = 0;
  std::uint64_t bypass_refactors = 0;
  /// LTE-adaptive timestep controller: accepted steps and rejected (redone)
  /// steps.
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  /// Convergence-recovery ladder: DC operating points rescued by gmin
  /// stepping and transient steps rescued by substep cutting / DC restart.
  std::uint64_t recovered_dc = 0;
  std::uint64_t recovered_transient = 0;
  /// Runs aborted by the cooperative Newton-iteration deadline.
  std::uint64_t deadline_aborts = 0;
};

[[nodiscard]] SpiceCounters spice_counters();
void reset_spice_counters();

void note_lte_steps(std::uint64_t accepted, std::uint64_t rejected);
void note_recovered_dc();
void note_recovered_transient();
void note_deadline_abort();

}  // namespace glova::spice
