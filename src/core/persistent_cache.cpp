#include "core/persistent_cache.hpp"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "common/fsio.hpp"
#include "common/state_io.hpp"
#include "common/text.hpp"

namespace glova::core {

namespace {

[[noreturn]] void bad_cache(const std::string& what) {
  throw std::runtime_error("glova-memo cache: " + what);
}

/// One process-wide lock around every file read-modify-write: concurrently
/// retiring sessions that share a cache path must serialize their merges or
/// the later rename would silently drop the earlier flush's entries.
std::mutex& file_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

MemoCache::Key MemoCache::make_key(std::span<const double> x_phys, const pdk::PvtCorner& corner,
                                   std::span<const double> h) const {
  Key key;
  key.reserve(4 + x_phys.size() + 1 + h.size());
  key.push_back(static_cast<std::int64_t>(corner.process) * 2 +
                (corner.process_predefined ? 1 : 0));
  key.push_back(quantize_for_key(corner.vdd));
  key.push_back(quantize_for_key(corner.temp_c));
  key.push_back(static_cast<std::int64_t>(x_phys.size()));
  for (const double v : x_phys) key.push_back(quantize_for_key(v));
  key.push_back(static_cast<std::int64_t>(h.size()));
  for (const double v : h) key.push_back(quantize_for_key(v));
  return key;
}

bool MemoCache::lookup(std::span<const double> x_phys, const pdk::PvtCorner& corner,
                       std::span<const double> h, std::vector<double>& out) {
  const Key key = make_key(x_phys, corner, h);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  out = it->second->metrics;
  return true;
}

void MemoCache::insert(std::span<const double> x_phys, const pdk::PvtCorner& corner,
                       std::span<const double> h, const std::vector<double>& metrics) {
  Key key = make_key(x_phys, corner, h);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index_.find(key) != index_.end()) return;
  lru_.push_front({std::move(key), metrics});
  index_.emplace(lru_.front().key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

std::size_t MemoCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::vector<MemoCacheEntry> MemoCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

std::size_t MemoCache::assign(const std::vector<MemoCacheEntry>& entries) {
  const std::lock_guard<std::mutex> lock(mutex_);
  index_.clear();
  lru_.clear();
  for (const MemoCacheEntry& e : entries) {
    if (lru_.size() >= capacity_) break;
    if (index_.find(e.key) != index_.end()) continue;
    lru_.push_back(e);
    index_.emplace(lru_.back().key, std::prev(lru_.end()));
  }
  return lru_.size();
}

std::string memo_cache_tag(const std::string& testbench_name, const EngineConfig& engine) {
  // Every field but "warm" is fixed: "q" spells kKeyQuantum and the rest
  // name retired knobs.  Spelling each as the value default engines wrote
  // keeps their memo files (and the --cache-dir file names hashed from this
  // tag) valid.
  std::string tag = testbench_name;
  tag += "|q=" + format_double_roundtrip(kKeyQuantum);
  tag += engine.dc_warm_start ? "|warm=1" : "|warm=0";
  tag += "|batched=0|adaptive=1|bypass=0|recovery=0|retries=0|deadline=0|degrade=0";
  tag += "|mos=ekv|noise=0";
  return tag;
}

std::string memo_cache_file_name(const std::string& testbench_name, const EngineConfig& engine) {
  const std::string tag = memo_cache_tag(testbench_name, engine);
  // FNV-1a over the tag bytes; 32 bits is plenty to separate the handful of
  // configurations a cache directory ever sees.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  std::string base;
  base.reserve(testbench_name.size());
  for (const char c : testbench_name) {
    base += std::isalnum(static_cast<unsigned char>(c)) ? c : '-';
  }
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "%08x", static_cast<unsigned>(h & 0xFFFFFFFFu));
  return base + "-" + suffix + ".memo";
}

void write_memo_entries(std::ostream& os, std::span<const MemoCacheEntry> entries) {
  for (const MemoCacheEntry& e : entries) {
    os << "key " << e.key.size();
    for (const std::int64_t k : e.key) os << ' ' << k;
    os << '\n';
    state::write_doubles(os, "val", e.metrics);
  }
}

std::vector<MemoCacheEntry> read_memo_entries(std::istream& is, std::uint64_t n) {
  std::vector<MemoCacheEntry> entries;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto at = [i] { return " in entry " + std::to_string(i); };
    MemoCacheEntry& entry = entries.emplace_back();
    std::istringstream line(state::expect_line(is, "key"));
    std::size_t klen = 0;
    if (!(line >> klen)) state::bad("malformed key length" + at());
    if (klen > state::kMaxCount) state::bad("implausible key length" + at());
    entry.key.resize(klen);
    for (std::int64_t& k : entry.key) {
      if (!(line >> k)) state::bad("truncated key" + at());
    }
    try {
      entry.metrics = state::read_doubles(is, "val");
    } catch (const std::exception& e) {
      state::bad("bad metrics" + at() + ": " + e.what());
    }
  }
  return entries;
}

void save_memo_cache(std::ostream& os, const MemoCacheFile& file) {
  os << "glova-memo v" << kMemoCacheFormatVersion << '\n';
  os << "tag " << state::one_line(file.tag) << '\n';
  os << "entries " << file.entries.size() << '\n';
  write_memo_entries(os, file.entries);
  // The block of the retired surrogate model: always empty now.
  os << "surrogate-lines 0\n";
  os << "end\n";
  if (!os) bad_cache("write failed");
}

MemoCacheFile load_memo_cache(std::istream& is, const std::string& expected_tag) {
  {
    std::string header;
    if (!std::getline(is, header)) bad_cache("empty input");
    std::istringstream line(header);
    std::string magic;
    std::string version;
    line >> magic >> version;
    if (magic != "glova-memo") {
      bad_cache("not a memo-cache file (expected 'glova-memo v" +
                std::to_string(kMemoCacheFormatVersion) + "', got '" + header + "')");
    }
    if (version != "v" + std::to_string(kMemoCacheFormatVersion)) {
      bad_cache("unsupported format version '" + version + "' (this build reads v" +
                std::to_string(kMemoCacheFormatVersion) + ")");
    }
  }
  MemoCacheFile file;
  file.tag = state::expect_line(is, "tag");
  if (!expected_tag.empty() && file.tag != expected_tag) {
    bad_cache("tag mismatch: file is tagged '" + file.tag + "' but this engine expects '" +
              expected_tag +
              "' — the cache belongs to a different (testcase, backend, numerics-config); "
              "delete the file or point cache_path elsewhere");
  }
  const std::uint64_t n = state::parse_u64(state::expect_line(is, "entries"), "entry count");
  if (n > kMaxMemoCacheEntries) {
    bad_cache("implausible entry count " + std::to_string(n) + " (cap is " +
              std::to_string(kMaxMemoCacheEntries) + ")");
  }
  try {
    file.entries = read_memo_entries(is, n);
  } catch (const std::runtime_error& e) {
    bad_cache(e.what());
  }
  const std::uint64_t lines =
      state::parse_u64(state::expect_line(is, "surrogate-lines"), "surrogate line count");
  if (lines > state::kMaxCount) bad_cache("implausible surrogate line count");
  // Files written in the retired surrogate mode carry its model here: skip it.
  for (std::uint64_t i = 0; i < lines; ++i) {
    std::string line;
    if (!std::getline(is, line)) bad_cache("truncated surrogate state");
  }
  (void)state::expect_line(is, "end");
  return file;
}

namespace {

std::optional<MemoCacheFile> load_file_locked(const std::string& path,
                                              const std::string& expected_tag) {
  std::ifstream is(path);
  if (!is) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    bad_cache("cannot open '" + path + "' for reading");
  }
  try {
    return load_memo_cache(is, expected_tag);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace

std::optional<MemoCacheFile> load_memo_cache_file(const std::string& path,
                                                  const std::string& expected_tag) {
  const std::lock_guard<std::mutex> lock(file_mutex());
  return load_file_locked(path, expected_tag);
}

std::size_t flush_memo_cache_file(const std::string& path, const MemoCacheFile& fresh) {
  const std::lock_guard<std::mutex> lock(file_mutex());
  MemoCacheFile merged;
  merged.tag = fresh.tag;
  std::unordered_set<MemoCache::Key, MemoCache::KeyHash> seen;
  seen.reserve(fresh.entries.size());
  for (const MemoCacheEntry& e : fresh.entries) {
    if (seen.insert(e.key).second) merged.entries.push_back(e);
  }
  // Append-friendly: disk entries this engine never saw (other sessions,
  // evictions from a smaller LRU) survive the flush behind the fresh ones.
  if (const std::optional<MemoCacheFile> disk = load_file_locked(path, fresh.tag)) {
    for (const MemoCacheEntry& e : disk->entries) {
      if (seen.insert(e.key).second) merged.entries.push_back(e);
    }
  }
  if (merged.entries.size() > kMaxMemoCacheEntries) {
    merged.entries.resize(kMaxMemoCacheEntries);
  }
  std::ostringstream os;
  save_memo_cache(os, merged);
  atomic_write_file(path, os.str());
  return merged.entries.size();
}

}  // namespace glova::core
