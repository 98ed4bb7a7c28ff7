// SPICE event counters.  Every simulation and DC warm-start cache lookup
// adds its events to the counter block of the EvaluationContext installed on
// the calling thread (core::EvaluationEngine installs its own, read back as
// its EngineStats), and to one process-wide block.
#pragma once

#include <atomic>
#include <cstdint>

namespace glova::spice {

struct SpiceCounters {
  /// Retired batch/bypass counters, always 0: kept because e2ebench/glova_e2e.cpp reads them.
  std::uint64_t batch_groups = 0;
  std::uint64_t batch_lanes = 0;
  std::uint64_t bypass_solves = 0;
  std::uint64_t bypass_refactors = 0;
  /// LTE-adaptive timestep controller: accepted steps and rejected (redone)
  /// steps, whether the LTE estimate or a failed Newton solve rejected them.
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  /// Retired recovery-ladder and deadline counters, always 0: kept because
  /// e2ebench/glova_e2e.cpp reads them.
  std::uint64_t recovered_dc = 0;
  std::uint64_t recovered_transient = 0;
  std::uint64_t deadline_aborts = 0;
};

/// Relaxed-atomic event counts of one owner: an engine, or the process.
struct SpiceCounterBlock {
  std::atomic<std::uint64_t> steps_accepted{0};
  std::atomic<std::uint64_t> steps_rejected{0};
  std::atomic<std::uint64_t> dc_warm_hits{0};
  std::atomic<std::uint64_t> dc_warm_misses{0};
  std::atomic<std::uint64_t> dc_warm_stores{0};
};

/// One field of a SpiceCounterBlock, e.g. &SpiceCounterBlock::steps_accepted.
using SpiceCounter = std::atomic<std::uint64_t> SpiceCounterBlock::*;

/// Add `n` events to `counter` in the process totals and in the installed
/// context's block (if it has one).
void note(SpiceCounter counter, std::uint64_t n = 1);

/// The process totals of the simulator events, summed over every thread and
/// engine (warm_start_stats() reads the cache events).  They stay because
/// e2ebench/glova_e2e.cpp reads them per pass; an engine reads its own block.
[[nodiscard]] SpiceCounters spice_counters();

}  // namespace glova::spice
