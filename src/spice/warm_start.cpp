#include "spice/warm_start.hpp"

#include <atomic>

#include "common/key_hash.hpp"

namespace glova::spice {

namespace {

std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_stores{0};
std::atomic<bool> g_enabled{true};

}  // namespace

WarmStartStats warm_start_stats() {
  WarmStartStats s;
  s.hits = g_hits.load();
  s.misses = g_misses.load();
  s.stores = g_stores.load();
  return s;
}

void reset_warm_start_stats() {
  g_hits.store(0);
  g_misses.store(0);
  g_stores.store(0);
}

bool dc_warm_start_enabled() { return g_enabled.load(); }

void set_dc_warm_start_enabled(bool enabled) { g_enabled.store(enabled); }

std::size_t DcWarmStartCache::KeyHash::operator()(const Key& key) const noexcept {
  return key_fnv1a(key);
}

DcWarmStartCache::DcWarmStartCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

const OpResult* DcWarmStartCache::lookup(const Key& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    g_misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  g_hits.fetch_add(1, std::memory_order_relaxed);
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
  g_stores.fetch_add(1, std::memory_order_relaxed);
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
                                  const pdk::PvtCorner& corner, double quantum) {
  DcWarmStartCache::Key key;
  key.reserve(5 + x_phys.size());
  key.push_back(static_cast<std::int64_t>(testbench_tag));
  key.push_back(static_cast<std::int64_t>(corner.process) * 2 +
                (corner.process_predefined ? 1 : 0));
  key.push_back(quantize_for_key(corner.vdd, quantum));
  key.push_back(quantize_for_key(corner.temp_c, quantum));
  key.push_back(static_cast<std::int64_t>(x_phys.size()));
  for (const double v : x_phys) key.push_back(quantize_for_key(v, quantum));
  return key;
}

}  // namespace glova::spice
