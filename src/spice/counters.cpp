#include "spice/counters.hpp"

#include "spice/simulator.hpp"
#include "spice/warm_start.hpp"

namespace glova::spice {

namespace {
SpiceCounterBlock g_totals;
}  // namespace

void note(SpiceCounter counter, std::uint64_t n) {
  if (n == 0) return;
  (g_totals.*counter).fetch_add(n, std::memory_order_relaxed);
  if (SpiceCounterBlock* own = current_context().counters) {
    (own->*counter).fetch_add(n, std::memory_order_relaxed);
  }
}

SpiceCounters spice_counters() {
  SpiceCounters c;
  c.steps_accepted = g_totals.steps_accepted.load(std::memory_order_relaxed);
  c.steps_rejected = g_totals.steps_rejected.load(std::memory_order_relaxed);
  return c;
}

WarmStartStats warm_start_stats() {
  WarmStartStats s;
  s.hits = g_totals.dc_warm_hits.load(std::memory_order_relaxed);
  s.misses = g_totals.dc_warm_misses.load(std::memory_order_relaxed);
  s.stores = g_totals.dc_warm_stores.load(std::memory_order_relaxed);
  return s;
}

}  // namespace glova::spice
