#include "spice/counters.hpp"

#include <atomic>

namespace glova::spice {

namespace {
std::atomic<std::uint64_t> g_steps_accepted{0};
std::atomic<std::uint64_t> g_steps_rejected{0};
std::atomic<std::uint64_t> g_recovered_dc{0};
std::atomic<std::uint64_t> g_recovered_transient{0};
std::atomic<std::uint64_t> g_deadline_aborts{0};
}  // namespace

SpiceCounters spice_counters() {
  SpiceCounters c;
  c.steps_accepted = g_steps_accepted.load(std::memory_order_relaxed);
  c.steps_rejected = g_steps_rejected.load(std::memory_order_relaxed);
  c.recovered_dc = g_recovered_dc.load(std::memory_order_relaxed);
  c.recovered_transient = g_recovered_transient.load(std::memory_order_relaxed);
  c.deadline_aborts = g_deadline_aborts.load(std::memory_order_relaxed);
  return c;
}

void reset_spice_counters() {
  g_steps_accepted.store(0, std::memory_order_relaxed);
  g_steps_rejected.store(0, std::memory_order_relaxed);
  g_recovered_dc.store(0, std::memory_order_relaxed);
  g_recovered_transient.store(0, std::memory_order_relaxed);
  g_deadline_aborts.store(0, std::memory_order_relaxed);
}

void note_lte_steps(std::uint64_t accepted, std::uint64_t rejected) {
  if (accepted != 0) g_steps_accepted.fetch_add(accepted, std::memory_order_relaxed);
  if (rejected != 0) g_steps_rejected.fetch_add(rejected, std::memory_order_relaxed);
}

void note_recovered_dc() { g_recovered_dc.fetch_add(1, std::memory_order_relaxed); }

void note_recovered_transient() {
  g_recovered_transient.fetch_add(1, std::memory_order_relaxed);
}

void note_deadline_abort() { g_deadline_aborts.fetch_add(1, std::memory_order_relaxed); }

}  // namespace glova::spice
