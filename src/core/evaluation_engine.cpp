#include "core/evaluation_engine.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/log.hpp"
#include "common/state_io.hpp"
#include "core/persistent_cache.hpp"

namespace glova::core {

namespace {
/// Batches with fewer misses than this run inline on the calling thread:
/// behavioral evaluations are microseconds each, so fan-out only pays off
/// from a few tasks up.
constexpr std::size_t kMinParallelBatch = 8;
}  // namespace

EvaluationEngine::EvaluationEngine(circuits::TestbenchPtr testbench, EngineConfig config)
    : testbench_(std::move(testbench)), config_(config) {
  if (!testbench_) throw std::invalid_argument("EvaluationEngine: null testbench");
  if (config_.parallelism > 0) {
    slots_ = std::make_unique<std::counting_semaphore<>>(
        static_cast<std::ptrdiff_t>(config_.parallelism));
  }
  for (const char c : config_.cache_path) {
    // The RunSpec grammar is space-separated; a path that cannot round-trip
    // through it is rejected up front rather than corrupting a checkpoint.
    if (std::isspace(static_cast<unsigned char>(c))) {
      throw std::invalid_argument("EvaluationEngine: cache_path must not contain whitespace");
    }
  }
  context_.dc_warm_start = config_.dc_warm_start;
  context_.counters = &spice_counters_;
  if (!config_.cache_path.empty() && config_.cache_capacity != 0) {
    memo_ = std::make_unique<MemoCache>(config_.cache_capacity);
    const auto file =
        load_memo_cache_file(config_.cache_path, memo_cache_tag(testbench_->name(), config_));
    if (file) memo_->assign(file->entries);  // absent on the first run against this path
  }
}

std::vector<double> EvaluationEngine::evaluate_guarded(std::span<const double> x_phys,
                                                       const pdk::PvtCorner& corner,
                                                       std::span<const double> h) {
  const spice::ScopedContext scope(context_);
  try {
    return testbench_->evaluate(x_phys, corner, h);
  } catch (const circuits::EvaluationError& e) {
    return e.penalty_metrics();
  }
}

std::vector<double> EvaluationEngine::evaluate_with_slot(std::span<const double> x_phys,
                                                         const pdk::PvtCorner& corner,
                                                         std::span<const double> h) {
  if (!slots_) return evaluate_guarded(x_phys, corner, h);
  slots_->acquire();
  try {
    std::vector<double> metrics = evaluate_guarded(x_phys, corner, h);
    slots_->release();
    return metrics;
  } catch (...) {
    slots_->release();
    throw;
  }
}

void EvaluationEngine::store_spice_counters(const EngineStats& s) {
  spice_counters_.dc_warm_hits.store(s.dc_warm_hits);
  spice_counters_.dc_warm_misses.store(s.dc_warm_misses);
  spice_counters_.dc_warm_stores.store(s.dc_warm_stores);
  spice_counters_.steps_accepted.store(s.steps_accepted);
  spice_counters_.steps_rejected.store(s.steps_rejected);
}

EvaluationEngine::~EvaluationEngine() {
  try {
    flush_persistent_cache();
  } catch (const std::exception& e) {
    log_warn("EvaluationEngine: persistent cache flush failed: ", e.what());
  }
}

void EvaluationEngine::flush_persistent_cache() {
  if (!memo_) return;
  flush_memo_cache_file(config_.cache_path,
                        {memo_cache_tag(testbench_->name(), config_), memo_->entries()});
}

std::size_t EvaluationEngine::effective_parallelism() const {
  const std::size_t pool = global_thread_pool().size();
  if (config_.parallelism == 0) return pool;
  return std::min(config_.parallelism, pool);
}

std::vector<std::vector<double>> EvaluationEngine::evaluate_batch(
    std::span<const double> x_phys, const pdk::PvtCorner& corner,
    const std::vector<std::vector<double>>& hs) {
  std::vector<std::vector<double>> results(hs.size());
  requested_.fetch_add(hs.size());

  // Resolve memo hits up front; only misses go to the simulator.  Identical
  // conditions inside one batch are still evaluated once each requested time
  // until the first insert lands — correctness is unaffected, and in practice
  // duplicate keys within a batch are repeated nominal-mismatch draws.
  std::vector<std::size_t> miss_indices;
  miss_indices.reserve(hs.size());
  for (std::size_t i = 0; i < hs.size(); ++i) {
    if (memo_ && memo_->lookup(x_phys, corner, hs[i], results[i])) {
      cache_hits_.fetch_add(1);
    } else {
      miss_indices.push_back(i);
    }
  }
  if (miss_indices.empty()) return results;

  const auto run_one = [&](std::size_t mi) {
    const std::size_t i = miss_indices[mi];
    results[i] = evaluate_with_slot(x_phys, corner, hs[i]);
    // Counted after the run so a throwing evaluation keeps the invariant
    // requested == cache_hits + executed (+ failures, which propagate).
    executed_.fetch_add(1);
    if (memo_) memo_->insert(x_phys, corner, hs[i], results[i]);
  };

  const std::size_t parallelism = effective_parallelism();
  if (parallelism > 1 && miss_indices.size() >= kMinParallelBatch) {
    global_thread_pool().parallel_for(miss_indices.size(), run_one, parallelism);
  } else {
    for (std::size_t mi = 0; mi < miss_indices.size(); ++mi) run_one(mi);
  }
  return results;
}

std::vector<double> EvaluationEngine::evaluate_one(std::span<const double> x_phys,
                                                   const pdk::PvtCorner& corner,
                                                   std::span<const double> h) {
  requested_.fetch_add(1);
  std::vector<double> metrics;
  if (memo_ && memo_->lookup(x_phys, corner, h, metrics)) {
    cache_hits_.fetch_add(1);
    return metrics;
  }
  metrics = evaluate_with_slot(x_phys, corner, h);
  executed_.fetch_add(1);
  if (memo_) memo_->insert(x_phys, corner, h, metrics);
  return metrics;
}

EngineStats EvaluationEngine::stats() const {
  EngineStats s;
  s.requested = requested_.load();
  s.executed = executed_.load();
  s.cache_hits = cache_hits_.load();
  s.dc_warm_hits = spice_counters_.dc_warm_hits.load();
  s.dc_warm_misses = spice_counters_.dc_warm_misses.load();
  s.dc_warm_stores = spice_counters_.dc_warm_stores.load();
  s.steps_accepted = spice_counters_.steps_accepted.load();
  s.steps_rejected = spice_counters_.steps_rejected.load();
  return s;
}

void EvaluationEngine::reset_count() {
  requested_.store(0);
  executed_.store(0);
  cache_hits_.store(0);
  store_spice_counters(EngineStats{});
}

std::size_t EvaluationEngine::cache_size() const { return memo_ ? memo_->size() : 0; }

void EvaluationEngine::clear_cache() {
  if (memo_) memo_->assign({});
}

void EvaluationEngine::save_state(std::ostream& os) const {
  // Zeros hold the places of retired counters (retries and degraded
  // evaluations on the counters line; batch/bypass, then recovery and
  // deadline on the carried line), so the frame layout stays the one earlier
  // releases read and write.
  os << "engine-state 1\n";
  os << "counters " << requested_.load() << ' ' << executed_.load() << ' ' << cache_hits_.load()
     << " 0 0\n";
  // The engine's own SPICE totals, which load_state() puts back.
  const EngineStats s = stats();
  os << "carried " << s.dc_warm_hits << ' ' << s.dc_warm_misses << ' ' << s.dc_warm_stores
     << " 0 0 0 0 " << s.steps_accepted << ' ' << s.steps_rejected << " 0 0 0\n";
  // Most recent first; load_state() rebuilds in the same order.
  const std::vector<MemoCacheEntry> entries =
      memo_ ? memo_->entries() : std::vector<MemoCacheEntry>{};
  os << "cache " << entries.size() << '\n';
  write_memo_entries(os, entries);
}

void EvaluationEngine::load_state(std::istream& is) {
  const std::uint64_t version =
      state::parse_u64(state::expect_line(is, "engine-state"), "engine-state version");
  if (version == 2) {
    // Only the retired surrogate=1 mode wrote v2, and such a spec no longer
    // loads either.
    state::bad("engine-state 2 was written by the removed surrogate mode "
               "(see docs/run_spec.md#retired-keys)");
  }
  if (version != 1) {
    state::bad("unsupported engine-state version " + std::to_string(version) +
               " (this build reads 1)");
  }
  // Every field must parse; the retired slots (see save_state) are then
  // discarded.
  {
    std::istringstream line(state::expect_line(is, "counters"));
    std::uint64_t counters[5];
    for (std::uint64_t& v : counters) v = state::next_u64(line, "engine counters");
    requested_.store(counters[0]);
    executed_.store(counters[1]);
    cache_hits_.store(counters[2]);
  }
  {
    std::istringstream line(state::expect_line(is, "carried"));
    std::uint64_t carried[12];
    for (std::uint64_t& v : carried) v = state::next_u64(line, "engine carried counters");
    EngineStats c;
    c.dc_warm_hits = carried[0];
    c.dc_warm_misses = carried[1];
    c.dc_warm_stores = carried[2];
    c.steps_accepted = carried[7];
    c.steps_rejected = carried[8];
    store_spice_counters(c);
  }
  const std::size_t n = state::parse_u64(state::expect_line(is, "cache"), "engine cache size");
  if (n > config_.cache_capacity) {
    state::bad("engine cache state holds " + std::to_string(n) + " entries, capacity is " +
               std::to_string(config_.cache_capacity));
  }
  const std::vector<MemoCacheEntry> entries = read_memo_entries(is, n);
  // An engine without a memo drops the entries a memo engine wrote.
  if (memo_ && memo_->assign(entries) != n) state::bad("duplicate engine cache key");
}

}  // namespace glova::core
