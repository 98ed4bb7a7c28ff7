// EvaluationEngine: the only gate through which optimizers reach the
// testbench.  Every caller — GlovaOptimizer, the Verifier, TuRBO init, the
// PVTSizing/RobustAnalog baselines, and the benches — submits evaluations
// here instead of touching the Testbench directly.  The engine provides:
//
//   * batched submission over the shared thread pool, honoring a real
//     parallelism setting (the paper runs N' = 3 samples concurrently during
//     optimization and "maximum available resources" during verification),
//   * on an engine with a persistent memo file (EngineConfig::cache_path)
//     only, a bounded memo keyed by (quantized design vector, corner,
//     mismatch draw), so points earlier sessions simulated are answered
//     without re-simulating; every other engine simulates each request.
//     Counters distinguish *requested* simulations (the paper's
//     "# Simulation" column, returned by simulation_count()) from *actually
//     run* ones,
//   * a modeled runtime (each SPICE run is far more expensive than the
//     optimizer bookkeeping around it); only ratios matter — Table II
//     reports *normalized* runtime,
//   * one numerics context (spice::EvaluationContext), built from the
//     EngineConfig and installed around every Testbench::evaluate call, so
//     each engine simulates with its own warm-start setting and counts its
//     own SPICE activity, whatever other engines share the process or its
//     threads,
//   * one failure path: a SPICE evaluation that does not converge throws
//     circuits::EvaluationError, and the engine returns the backend's
//     penalty metrics in its place.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <semaphore>
#include <span>
#include <string>
#include <vector>

#include "circuits/testbench.hpp"
#include "common/thread_pool.hpp"
#include "pdk/corner.hpp"
#include "spice/counters.hpp"
#include "spice/simulator.hpp"

namespace glova::core {

class MemoCache;

struct SimulationCost {
  /// Modeled cost of one SPICE simulation in arbitrary time units; the
  /// per-iteration optimizer overhead is a fraction of this.  Only ratios
  /// matter: Table II reports *normalized* runtime.
  double per_simulation = 1.0;
  double per_rl_iteration = 2.0;

  friend bool operator==(const SimulationCost&, const SimulationCost&) = default;
};

struct EngineConfig {
  /// Maximum simulations in flight for one batch.  0 = use every thread-pool
  /// worker; 1 = strictly sequential.
  std::size_t parallelism = 0;
  /// Capacity in entries (LRU eviction) of the memo, which only an engine
  /// with a cache_path keeps.  0 disables it, file included.
  std::size_t cache_capacity = 4096;
  /// Enable the SPICE-level DC warm-start cache (converged operating points
  /// reused as Newton seeds across mismatch draws of one design), through
  /// this engine's EvaluationContext::dc_warm_start.  Behavioral testbenches
  /// are unaffected.
  bool dc_warm_start = true;
  /// Path of the persistent cross-session memo-cache file (see
  /// core/persistent_cache.hpp).  Non-empty: the engine keeps a memo, loads
  /// matching entries into it at construction and merges it back to disk on
  /// destruction (or flush_persistent_cache()), so repeated points across
  /// sessions, campaigns, and glova-serve restarts are answered without
  /// re-simulating.  The file is tagged with the testbench name and every
  /// numerics-affecting knob; a foreign tag is rejected at construction.
  /// Must not contain whitespace (the RunSpec grammar is space-separated).
  /// Empty (default) = no memo: every request is simulated.
  std::string cache_path;

  friend bool operator==(const EngineConfig&, const EngineConfig&) = default;
};

/// Counter snapshot.  requested == cache_hits + executed at any quiescent
/// point; requested is what simulation_count() reports.  The SPICE counters
/// (dc_warm_*, steps_*) count this engine's own evaluations only, on
/// whichever worker threads they ran, since it was constructed or
/// reset_count() was last called (plus the totals a load_state() restored).
/// Other engines in the process never show up here.
struct EngineStats {
  std::uint64_t requested = 0;
  std::uint64_t executed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t dc_warm_hits = 0;
  std::uint64_t dc_warm_misses = 0;
  std::uint64_t dc_warm_stores = 0;
  /// Simulator-level activity: the adaptive timestep controller's
  /// accepted/rejected step totals.
  std::uint64_t steps_accepted = 0;
  std::uint64_t steps_rejected = 0;
  /// Always 0: evaluation retries and behavioral degradation are gone, but
  /// e2ebench/glova_e2e.cpp reads them.
  std::uint64_t retries = 0;
  std::uint64_t degraded_evals = 0;
  /// Always 0: the surrogate pre-ranker is gone, but e2ebench/glova_e2e.cpp reads it.
  std::uint64_t surrogate_prunes = 0;
};

class EvaluationEngine {
 public:
  explicit EvaluationEngine(circuits::TestbenchPtr testbench, EngineConfig config = {});
  /// Merges the memo into its cache_path file, if the engine keeps one.
  ~EvaluationEngine();

  /// Evaluate one design under one corner and many mismatch conditions.
  /// `hs` may contain empty vectors (nominal mismatch).  Results preserve
  /// order.  Thread-safe.
  [[nodiscard]] std::vector<std::vector<double>> evaluate_batch(
      std::span<const double> x_phys, const pdk::PvtCorner& corner,
      const std::vector<std::vector<double>>& hs);

  /// Single evaluation (counted, memoized when the engine keeps a memo).
  [[nodiscard]] std::vector<double> evaluate_one(std::span<const double> x_phys,
                                                 const pdk::PvtCorner& corner,
                                                 std::span<const double> h);

  /// The circuit under evaluation (stateless-const; shared across engines).
  [[nodiscard]] const circuits::Testbench& testbench() const { return *testbench_; }
  /// The knobs this engine was constructed with.
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// Requested simulations — the paper's "# Simulation" semantics.  Memo
  /// hits count: the caller asked for that simulation whether or not the
  /// engine had to run it.
  [[nodiscard]] std::uint64_t simulation_count() const { return requested_.load(); }
  /// Full counter snapshot (requested/executed/cache-hit + dc_warm_*).
  [[nodiscard]] EngineStats stats() const;
  /// Zero every counter.
  void reset_count();

  /// Current number of memoized evaluations (0 without a memo).
  [[nodiscard]] std::size_t cache_size() const;
  /// Drop every memoized evaluation (counters are unaffected).
  void clear_cache();

  /// Merge the memo into the EngineConfig::cache_path file through the
  /// atomic-rename path.  No-op on an engine without a memo.  Also runs in
  /// the destructor (where a failure is logged, not thrown).
  void flush_persistent_cache();

  /// Text-serialize the engine's counters and memoization cache (LRU order
  /// preserved) so a restored engine answers the same requests with the same
  /// hit/miss pattern.  The engine's own SPICE counter totals go on the
  /// `carried` line, and load_state() puts them back into its counter block,
  /// so stats() of a restored engine continues from them.  Configuration is NOT
  /// serialized — `load_state` expects an engine constructed with the same
  /// EngineConfig and testbench.  The frame is `engine-state 1`; without a
  /// memo its `cache` block is empty, and entries read there are dropped.
  /// load_state rejects the `engine-state 2` frame that only the retired
  /// surrogate mode wrote.
  void save_state(std::ostream& os) const;
  void load_state(std::istream& is);

 private:
  [[nodiscard]] std::size_t effective_parallelism() const;
  /// Run one evaluation while holding a parallelism slot (no-op when the
  /// engine is uncapped).  Never held across anything that could block on
  /// another slot, so slot-holders always make progress.
  [[nodiscard]] std::vector<double> evaluate_with_slot(std::span<const double> x_phys,
                                                       const pdk::PvtCorner& corner,
                                                       std::span<const double> h);
  /// testbench().evaluate under context_; an EvaluationError resolves to
  /// the backend's penalty metrics, so callers never see the exception.
  [[nodiscard]] std::vector<double> evaluate_guarded(std::span<const double> x_phys,
                                                     const pdk::PvtCorner& corner,
                                                     std::span<const double> h);
  /// Store the SPICE fields of `s` into spice_counters_.
  void store_spice_counters(const EngineStats& s);

  circuits::TestbenchPtr testbench_;
  EngineConfig config_;
  /// Shared in-flight cap for every execution path (evaluate_one and
  /// evaluate_batch, from any number of calling threads); null when
  /// config_.parallelism == 0 (uncapped: the pool size is the only bound).
  std::unique_ptr<std::counting_semaphore<>> slots_;

  std::atomic<std::uint64_t> requested_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  /// This engine's SPICE activity: every simulation and DC-cache lookup run
  /// under context_ adds to it.
  spice::SpiceCounterBlock spice_counters_;
  /// The numerics every evaluation runs with (options from config_, a
  /// pointer to spice_counters_), installed by evaluate_guarded().
  spice::EvaluationContext context_;

  /// Null unless config_ has a cache_path and a nonzero cache_capacity.
  std::unique_ptr<MemoCache> memo_;
};

}  // namespace glova::core
