// DC warm-start cache: converged operating points keyed by a quantized
// (testbench, design, corner) identity, reused as Newton seeds across
// mismatch draws of the same design.
//
// Mismatch shifts device parameters by millivolts around the nominal design,
// so the nominal DC solution is an excellent Newton seed: warm-started
// solves converge in a fraction of the cold iteration count and skip the
// source-stepping fallback entirely.  Correctness is unaffected — a warm
// start only changes the Newton trajectory, and Simulator::operating_point
// falls back to the cold path whenever a seed fails, so converged solutions
// agree with cold solves to within the Newton voltage tolerance (vtol).
//
// The cache is thread-local (one per worker, adjacent to the thread's
// SimulatorWorkspace): lookups are lock-free and each evaluation thread
// warms its own cache after the first draw of a design.  Every engine whose
// evaluations run on a thread shares that thread's cache; they all solve the
// same channel model, so a seed stored by one is a valid seed for another,
// and an engine with warm start off neither reads nor stores it.
// Hit/miss/store events count into the installed EvaluationContext's counter
// block and the process totals (spice/counters.hpp).
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pdk/corner.hpp"
#include "spice/simulator.hpp"

namespace glova::spice {

/// Process-wide warm-start counters (summed over every thread's cache).
struct WarmStartStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
};

/// The process totals; they stay because e2ebench/glova_e2e.cpp reads them
/// per pass.  Defined in counters.cpp, beside the simulator totals.
[[nodiscard]] WarmStartStats warm_start_stats();

/// Small LRU cache of converged DC operating points.  Keys are flat integer
/// vectors (see make_dc_key); equality is exact.
class DcWarmStartCache {
 public:
  using Key = std::vector<std::int64_t>;

  explicit DcWarmStartCache(std::size_t capacity = 64);

  /// Returns the cached operating point, or nullptr on a miss.  The pointer
  /// stays valid until the next store() or clear() on this cache.  Counts a
  /// hit or a miss (see note() in spice/counters.hpp).
  [[nodiscard]] const OpResult* lookup(const Key& key);

  /// Insert (or refresh) an entry; evicts least-recently-used on overflow.
  /// Only converged results are worth storing; non-converged ones are
  /// silently dropped.
  void store(const Key& key, const OpResult& op);

  void clear();
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  std::size_t capacity_;
  /// LRU: most recent at the front.  The map points into the list.
  std::list<std::pair<Key, OpResult>> lru_;
  std::unordered_map<Key, decltype(lru_)::iterator, KeyHash> index_;
};

/// The calling thread's warm-start cache, adjacent to its
/// thread_local_workspace().
[[nodiscard]] DcWarmStartCache& thread_local_dc_cache();

/// Build a cache key from a testbench tag (distinguishes circuit topologies
/// that share a design-vector shape), the physical design vector, and the
/// PVT corner.  Mismatch draws are deliberately NOT part of the key: all
/// draws of one (design, corner) share the nominal seed.  Coordinates are
/// quantized like the evaluation-engine memo keys (quantize_for_key) so
/// round-trip noise never splits entries.
[[nodiscard]] DcWarmStartCache::Key make_dc_key(std::uint64_t testbench_tag,
                                                std::span<const double> x_phys,
                                                const pdk::PvtCorner& corner);

/// One transient of `circuit` under the installed EvaluationContext: the
/// Simulator takes the context's options, and when the context enables warm
/// start the DC solve is seeded from the calling thread's cache under
/// make_dc_key(testbench_tag, x_phys, corner).  The converged point
/// is stored on a miss, and also whenever a cached seed went unused (the
/// warm attempt failed and the cold fallback converged), so a stale entry
/// cannot keep charging the failed-warm-attempt tax to every later draw.
[[nodiscard]] TransientResult warm_started_transient(const Circuit& circuit,
                                                     const TransientSpec& spec,
                                                     std::uint64_t testbench_tag,
                                                     std::span<const double> x_phys,
                                                     const pdk::PvtCorner& corner);

}  // namespace glova::spice
