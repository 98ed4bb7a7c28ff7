// Persistent cross-session memo cache for core::EvaluationEngine: the memo
// an engine with a cache_path keeps (core::MemoCache) and its file.
//
// One file holds the memoized (quantized design, corner, mismatch) -> metrics
// entries of one evaluation configuration, identified by a *tag* — the
// testbench name plus every numerics-affecting EngineConfig knob — so a cache
// written under one simulation truth can never be replayed under another.
// The format is versioned, line-oriented text built from the same
// common/state_io.hpp primitives as campaign checkpoints, written through the
// crash-safe atomic-rename path, and append-friendly: flushing merges the
// engine's memo with whatever is already on disk instead of truncating it,
// so the file accumulates observations across sessions, campaigns, and
// glova-serve restarts.
//
//   glova-memo v1
//   tag <testbench|numerics-config>
//   entries N
//   key K k0 ... kK-1          (N times: quantized memo key)
//   val M v0 ... vM-1          (metrics, doubles via max_digits10)
//   surrogate-lines 0          (L > 0 and L raw lines in files written by
//                               the retired surrogate mode; skipped on load)
//   end
//
// Malformed input — wrong magic, unsupported version, a tag belonging to a
// different configuration, truncation, garbage fields — fails loudly with an
// actionable std::runtime_error; tests/test_persistent_cache.cpp pins both
// the byte format (save -> load -> save fixed point) and the rejections.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/key_hash.hpp"
#include "core/evaluation_engine.hpp"

namespace glova::core {

/// One memoized evaluation: the memo's flat quantized key and the metric
/// vector it resolved to.
struct MemoCacheEntry {
  std::vector<std::int64_t> key;
  std::vector<double> metrics;

  friend bool operator==(const MemoCacheEntry&, const MemoCacheEntry&) = default;
};

/// Bounded, thread-safe LRU memo of evaluations.  Only an engine with a
/// cache_path keeps one: GLOVA draws fresh mismatch at every corner, so an
/// exact-key memo answers almost nothing within one session.
class MemoCache {
 public:
  /// Flat integer key: corner fields, then quantized x, a separator, then
  /// quantized h.  Vector equality is exact key equality.
  using Key = std::vector<std::int64_t>;

  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept { return key_fnv1a(key); }
  };

  /// `capacity` entries at most; coordinates are quantized by
  /// quantize_for_key.
  explicit MemoCache(std::size_t capacity) : capacity_(capacity) {}

  /// Copy the metrics memoized for (x_phys, corner, h) into `out` and make
  /// the entry the most recent; false on a miss.
  [[nodiscard]] bool lookup(std::span<const double> x_phys, const pdk::PvtCorner& corner,
                            std::span<const double> h, std::vector<double>& out);
  /// Memoize `metrics` for (x_phys, corner, h) as the most recent entry,
  /// evicting the least recent one beyond capacity.  A point already present
  /// (a concurrent duplicate compute) keeps its entry.
  void insert(std::span<const double> x_phys, const pdk::PvtCorner& corner,
              std::span<const double> h, const std::vector<double>& metrics);

  [[nodiscard]] std::size_t size() const;
  /// Every entry, most recent first.
  [[nodiscard]] std::vector<MemoCacheEntry> entries() const;
  /// Replace the contents with `entries` (most recent first), stopping at
  /// capacity and skipping repeated keys.  Returns how many were kept.
  std::size_t assign(const std::vector<MemoCacheEntry>& entries);

 private:
  [[nodiscard]] Key make_key(std::span<const double> x_phys, const pdk::PvtCorner& corner,
                             std::span<const double> h) const;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Most recent at the front.  The index points into the list.
  std::list<MemoCacheEntry> lru_;
  std::unordered_map<Key, std::list<MemoCacheEntry>::iterator, KeyHash> index_;
};

/// In-memory image of one on-disk memo-cache file.
struct MemoCacheFile {
  std::string tag;                      ///< memo_cache_tag() of the writer
  std::vector<MemoCacheEntry> entries;  ///< most recently used first

  friend bool operator==(const MemoCacheFile&, const MemoCacheFile&) = default;
};

inline constexpr int kMemoCacheFormatVersion = 1;
/// Bound on entries per file: flushes keep the most recent entries first and
/// drop the tail beyond this, so a long-lived shared cache file cannot grow
/// without limit (entries are a few hundred bytes each).
inline constexpr std::size_t kMaxMemoCacheEntries = 262'144;

/// The (testcase, backend, numerics-config) identity of a cache file: the
/// testbench name plus every EngineConfig knob that changes the metric
/// values a simulation produces (today only dc_warm_start), and the
/// constant values of retired knobs.  Engines refuse to load a file whose
/// tag differs from their own.
[[nodiscard]] std::string memo_cache_tag(const std::string& testbench_name,
                                         const EngineConfig& engine);

/// Stable per-tag file name ("<sanitized-testbench>-<tag-hash>.memo") used by
/// CampaignConfig::cache_dir to shard one directory by configuration, so
/// sessions with different numerics knobs never collide on one file.
[[nodiscard]] std::string memo_cache_file_name(const std::string& testbench_name,
                                               const EngineConfig& engine);

/// The `key`/`val` line pair of each entry, as both the memo file and the
/// engine-state frame's `cache` block store them.  The reader throws
/// std::runtime_error naming the entry on malformed input.
void write_memo_entries(std::ostream& os, std::span<const MemoCacheEntry> entries);
[[nodiscard]] std::vector<MemoCacheEntry> read_memo_entries(std::istream& is, std::uint64_t n);

void save_memo_cache(std::ostream& os, const MemoCacheFile& file);

/// Parse one cache file.  When `expected_tag` is non-empty, a file carrying
/// any other tag is rejected.  Throws std::runtime_error with an actionable
/// message on malformed input.
[[nodiscard]] MemoCacheFile load_memo_cache(std::istream& is,
                                            const std::string& expected_tag = {});

/// load_memo_cache from a file; nullopt when `path` does not exist (a fresh
/// cache), throws when it exists but cannot be read or parsed.
[[nodiscard]] std::optional<MemoCacheFile> load_memo_cache_file(
    const std::string& path, const std::string& expected_tag = {});

/// Read-merge-write: `fresh` entries (most recent first) take precedence,
/// disk entries not present in `fresh` are appended, and the merged file is
/// written through atomic_write_file.  The read-modify-write sequence is
/// serialized under one process-wide mutex so concurrently retiring sessions
/// cannot lose each other's observations.  Returns the merged entry count.
std::size_t flush_memo_cache_file(const std::string& path, const MemoCacheFile& fresh);

}  // namespace glova::core
