#include "spice/warm_start.hpp"

#include "common/key_hash.hpp"
#include "spice/counters.hpp"

namespace glova::spice {

std::size_t DcWarmStartCache::KeyHash::operator()(const Key& key) const noexcept {
  return key_fnv1a(key);
}

DcWarmStartCache::DcWarmStartCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

const OpResult* DcWarmStartCache::lookup(const Key& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    note(&SpiceCounterBlock::dc_warm_misses);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  note(&SpiceCounterBlock::dc_warm_hits);
  return &it->second->second;
}

void DcWarmStartCache::store(const Key& key, const OpResult& op) {
  if (!op.converged) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = op;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, op);
  index_.emplace(lru_.front().first, lru_.begin());
  note(&SpiceCounterBlock::dc_warm_stores);
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void DcWarmStartCache::clear() {
  index_.clear();
  lru_.clear();
}

DcWarmStartCache& thread_local_dc_cache() {
  thread_local DcWarmStartCache cache;
  return cache;
}

DcWarmStartCache::Key make_dc_key(std::uint64_t testbench_tag, std::span<const double> x_phys,
                                  const pdk::PvtCorner& corner) {
  DcWarmStartCache::Key key;
  key.reserve(5 + x_phys.size());
  key.push_back(static_cast<std::int64_t>(testbench_tag));
  key.push_back(static_cast<std::int64_t>(corner.process) * 2 +
                (corner.process_predefined ? 1 : 0));
  key.push_back(quantize_for_key(corner.vdd));
  key.push_back(quantize_for_key(corner.temp_c));
  key.push_back(static_cast<std::int64_t>(x_phys.size()));
  for (const double v : x_phys) key.push_back(quantize_for_key(v));
  return key;
}

TransientResult warm_started_transient(const Circuit& circuit, const TransientSpec& spec,
                                       std::uint64_t testbench_tag,
                                       std::span<const double> x_phys,
                                       const pdk::PvtCorner& corner) {
  const EvaluationContext& context = current_context();
  Simulator sim(circuit, context.options);
  if (!context.dc_warm_start) return sim.transient(spec);
  DcWarmStartCache& cache = thread_local_dc_cache();
  const DcWarmStartCache::Key key = make_dc_key(testbench_tag, x_phys, corner);
  const OpResult* seed = cache.lookup(key);
  TransientResult res = sim.transient(spec, seed);
  if (res.ok && (seed == nullptr || !res.dc_op.warm_started)) cache.store(key, res.dc_op);
  return res;
}

}  // namespace glova::spice
