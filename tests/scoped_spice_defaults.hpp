// RAII save/restore of the process-wide SPICE switches.  An EvaluationEngine
// writes its EngineConfig into them at construction, and some tests and
// benches set them directly; restoring the values found on entry (rather
// than writing fixed ones back) keeps either from leaving later tests of the
// same binary on another model, grid, or recovery setting.
#pragma once

#include <cstdint>

#include "spice/simulator.hpp"
#include "spice/warm_start.hpp"

namespace glova::test_support {

class ScopedSpiceDefaults {
 public:
  ScopedSpiceDefaults() = default;
  ~ScopedSpiceDefaults() {
    spice::set_mos_model_default(mos_model_);
    spice::set_adaptive_timestep_default(adaptive_timestep_);
    spice::set_dc_warm_start_enabled(dc_warm_start_);
    spice::set_recovery_default(recovery_);
    spice::set_deadline_default(deadline_);
    spice::set_recovery_escalation(escalation_);
  }
  ScopedSpiceDefaults(const ScopedSpiceDefaults&) = delete;
  ScopedSpiceDefaults& operator=(const ScopedSpiceDefaults&) = delete;

 private:
  spice::MosModel mos_model_ = spice::mos_model_default();
  bool adaptive_timestep_ = spice::adaptive_timestep_default();
  bool dc_warm_start_ = spice::dc_warm_start_enabled();
  bool recovery_ = spice::recovery_default();
  std::uint64_t deadline_ = spice::deadline_default();
  int escalation_ = spice::recovery_escalation();
};

}  // namespace glova::test_support
