// Tests for the persistent memo cache (docs/architecture.md#persistent-memo-cache):
// the glova-memo file format (save -> load -> save byte fixed point,
// actionable rejection of truncated/garbage/version-mismatched/foreign-tag
// files), the engine's preload/flush round trip, files written with the
// retired surrogate block, and warm-cache campaign determinism (a second run
// over a shared cache directory executes zero simulations and reproduces
// results byte-identically).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "circuits/registry.hpp"
#include "core/campaign.hpp"
#include "core/evaluation_engine.hpp"
#include "core/optimizer_base.hpp"
#include "core/persistent_cache.hpp"
#include "pdk/variation.hpp"

namespace glova {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::MemoCacheFile sample_file() {
  core::MemoCacheFile file;
  file.tag = "sample-bench|q=1e-15|warm=1|batched=0|adaptive=0|bypass=0|recovery=0"
             "|retries=0|deadline=0|degrade=0";
  file.entries.push_back({{1, -2, 3}, {0.5, -1.25}});
  file.entries.push_back({{4, 5}, {3.0}});
  file.entries.push_back({{}, {1e-300, 2e17}});
  return file;
}

/// The header of a SAL behavioral memo file as a default engine writes it
/// (and has since the adaptive/EKV defaults), then the one entry the files
/// below carry: the midpoint design at the typical corner.
const std::string kDefaultTagLine =
    "tag StrongARM latch|q=1.0000000000000001e-15|warm=1|batched=0|adaptive=1|bypass=0"
    "|recovery=0|retries=0|deadline=0|degrade=0|mos=ekv|noise=0\n";
const std::string kMidpointEntry =
    "entries 1\n"
    "key 19 1 900000000000000 26999999999999996 14 16540000000 16540000000 16540000000 "
    "16540000000 16540000000 16540000000 180000000 180000000 180000000 180000000 "
    "180000000 180000000 2752 2752 0\n"
    "val 4 0.00040532783151035772 1.5801978999547426e-09 2.0674653238861908e-09 "
    "4.3373456954211326e-05\n";

TEST(MemoCacheFormat, SaveLoadSaveIsAByteFixedPoint) {
  const core::MemoCacheFile original = sample_file();
  std::ostringstream first;
  core::save_memo_cache(first, original);

  std::istringstream in(first.str());
  const core::MemoCacheFile loaded = core::load_memo_cache(in, original.tag);
  EXPECT_EQ(loaded, original);

  std::ostringstream second;
  core::save_memo_cache(second, loaded);
  EXPECT_EQ(second.str(), first.str());
}

TEST(MemoCacheFormat, EmptyAndGarbageInputsAreRejectedWithContext) {
  {
    std::istringstream in("");
    try {
      (void)core::load_memo_cache(in);
      FAIL() << "empty input must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("empty input"), std::string::npos) << e.what();
    }
  }
  {
    std::istringstream in("this is not a cache file\n");
    try {
      (void)core::load_memo_cache(in);
      FAIL() << "garbage magic must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("not a memo-cache file"), std::string::npos)
          << e.what();
    }
  }
}

TEST(MemoCacheFormat, UnsupportedVersionIsRejected) {
  std::istringstream in("glova-memo v999\ntag t\nentries 0\nsurrogate-lines 0\nend\n");
  try {
    (void)core::load_memo_cache(in);
    FAIL() << "future version must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported format version 'v999'"), std::string::npos) << what;
    EXPECT_NE(what.find("this build reads v1"), std::string::npos) << what;
  }
}

TEST(MemoCacheFormat, ForeignTagIsRejectedWithActionableMessage) {
  std::ostringstream saved;
  core::save_memo_cache(saved, sample_file());
  std::istringstream in(saved.str());
  try {
    (void)core::load_memo_cache(in, "another-bench|q=1e-15");
    FAIL() << "foreign tag must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tag mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("delete the file or point cache_path elsewhere"), std::string::npos)
        << what;
  }
}

TEST(MemoCacheFormat, TruncatedFilesAreRejected) {
  std::ostringstream saved;
  core::save_memo_cache(saved, sample_file());
  const std::string full = saved.str();
  // Cutting the file anywhere must fail loudly, never return partial data.
  for (const double fraction : {0.2, 0.5, 0.9}) {
    const std::string cut = full.substr(0, static_cast<std::size_t>(full.size() * fraction));
    std::istringstream in(cut);
    EXPECT_THROW((void)core::load_memo_cache(in, sample_file().tag), std::runtime_error)
        << "accepted a file truncated to " << fraction;
  }
  // A malformed metric line inside an entry names the entry.
  std::string corrupt = full;
  const std::size_t val = corrupt.find("val 1 3");
  ASSERT_NE(val, std::string::npos);
  corrupt.replace(val, 7, "val 1 x");
  std::istringstream in(corrupt);
  try {
    (void)core::load_memo_cache(in, sample_file().tag);
    FAIL() << "corrupt metrics must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad metrics in entry 1"), std::string::npos)
        << e.what();
  }
}

TEST(MemoCacheFormat, MissingFileIsNotAnErrorButUnreadableIs) {
  const std::string dir = fresh_dir("glova_memo_missing");
  EXPECT_FALSE(core::load_memo_cache_file(dir + "/absent.memo", "t").has_value());
  // A present-but-garbage file throws, and the message names the path.
  const std::string path = dir + "/garbage.memo";
  std::ofstream(path) << "not a cache\n";
  try {
    (void)core::load_memo_cache_file(path, "t");
    FAIL() << "garbage file must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(MemoCacheFormat, FileNameShardsByConfigAndSanitizesTheName) {
  core::EngineConfig a;
  const std::string name_a = core::memo_cache_file_name("my bench/v2", a);
  // Non-alphanumerics in the testbench name never reach the filesystem.
  EXPECT_EQ(name_a.find('/'), std::string::npos);
  EXPECT_EQ(name_a.find(' '), std::string::npos);
  EXPECT_NE(name_a.find(".memo"), std::string::npos);
  // A different numerics config shards to a different file, so two engines
  // with incompatible settings sharing one cache_dir never collide.
  core::EngineConfig b = a;
  b.dc_warm_start = false;
  EXPECT_NE(core::memo_cache_file_name("my bench/v2", b), name_a);
  EXPECT_NE(core::memo_cache_tag("my bench/v2", b), core::memo_cache_tag("my bench/v2", a));
}

std::vector<double> midpoint_design(const circuits::Testbench& tb) {
  std::vector<double> x01(tb.sizing().dimension(), 0.5);
  return tb.sizing().denormalize(x01);
}

TEST(PersistentCache, EngineFlushesOnDestructionAndPreloadsOnConstruction) {
  const std::string dir = fresh_dir("glova_memo_engine");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/sal.memo";

  std::vector<std::vector<double>> hs;
  std::vector<std::vector<double>> first;
  {
    core::EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal), cfg);
    const auto x = midpoint_design(engine.testbench());
    const auto layout = engine.testbench().mismatch_layout(x, false);
    Rng rng(5);
    hs = pdk::sample_mismatch_set(layout, 6, rng, pdk::GlobalMode::Zero);
    first = engine.evaluate_batch(x, pdk::typical_corner(), hs);
    EXPECT_EQ(engine.stats().executed, 6u);
  }  // destructor flushes
  ASSERT_TRUE(std::filesystem::exists(cfg.cache_path));

  core::EvaluationEngine warm(circuits::make_testbench(circuits::Testcase::Sal), cfg);
  EXPECT_EQ(warm.cache_size(), 6u);
  const auto x = midpoint_design(warm.testbench());
  const auto again = warm.evaluate_batch(x, pdk::typical_corner(), hs);
  EXPECT_EQ(again, first);  // bit-identical, served from disk
  EXPECT_EQ(warm.stats().executed, 0u);
  EXPECT_EQ(warm.stats().cache_hits, 6u);
}

// The tag still spells the retired knobs as the values they took on the
// default path (batch/bypass/noise 0, the adaptive grid, EKV), so memo files
// written by default engines before their removal keep loading.  A file from
// before the adaptive/EKV defaults spells `adaptive=0` and `mos=level1`: its
// points were simulated on numerics the solver no longer has, and a default
// engine rejects it.
TEST(PersistentCache, DefaultTagIsPinnedAndOlderMemoFilesStillLoad) {
  EXPECT_EQ(core::memo_cache_tag("X", core::EngineConfig{}),
            "X|q=1.0000000000000001e-15|warm=1|batched=0|adaptive=1|bypass=0|recovery=0"
            "|retries=0|deadline=0|degrade=0|mos=ekv|noise=0");

  const std::string dir = fresh_dir("glova_memo_older_release");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/sal.memo";
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  {
    std::ofstream os(cfg.cache_path);
    os << "glova-memo v1\n"
          "tag StrongARM latch|q=1.0000000000000001e-15|warm=1|batched=0|adaptive=0|bypass=0"
          "|recovery=0|retries=0|deadline=0|degrade=0|mos=level1|noise=0\n"
       << kMidpointEntry << "surrogate-lines 0\nend\n";
  }
  try {
    core::EvaluationEngine rejected(tb, cfg);
    ADD_FAILURE() << "a default engine loaded a level1 memo file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("tag mismatch"), std::string::npos) << e.what();
  }

  std::ofstream(cfg.cache_path) << "glova-memo v1\n"
                                << kDefaultTagLine << kMidpointEntry
                                << "surrogate-lines 0\nend\n";
  core::EvaluationEngine engine(tb, cfg);  // a tag mismatch would throw here
  ASSERT_EQ(engine.cache_size(), 1u);
  const auto x = midpoint_design(*tb);
  EXPECT_EQ(engine.evaluate_one(x, pdk::typical_corner(), {}),
            tb->evaluate(x, pdk::typical_corner(), {}));
  EXPECT_EQ(engine.stats().executed, 0u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST(PersistentCache, FlushMergesWithEntriesAlreadyOnDisk) {
  const std::string dir = fresh_dir("glova_memo_merge");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/sal.memo";
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  const auto x = midpoint_design(*tb);
  const auto corners = pdk::full_corner_set();

  {
    core::EvaluationEngine a(tb, cfg);
    (void)a.evaluate_one(x, corners[0], {});
  }
  {
    // B never saw A's entry (fresh process simulation): its flush must merge,
    // not overwrite.
    core::EvaluationEngine b(tb, cfg);
    b.clear_cache();
    (void)b.evaluate_one(x, corners[1], {});
  }
  core::EvaluationEngine c(tb, cfg);
  (void)c.evaluate_one(x, corners[0], {});
  (void)c.evaluate_one(x, corners[1], {});
  EXPECT_EQ(c.stats().executed, 0u);
  EXPECT_EQ(c.stats().cache_hits, 2u);
}

TEST(PersistentCache, TagMismatchAtEngineConstructionThrows) {
  const std::string dir = fresh_dir("glova_memo_tagclash");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/shared.memo";
  {
    core::EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal), cfg);
    (void)engine.evaluate_one(midpoint_design(engine.testbench()), pdk::typical_corner(), {});
  }
  // Same file, different numerics config: the tag no longer matches and the
  // stale results must not be served.
  core::EngineConfig other = cfg;
  other.dc_warm_start = false;
  EXPECT_THROW(
      core::EvaluationEngine(circuits::make_testbench(circuits::Testcase::Sal), other),
      std::runtime_error);
}

// A memo file as the retired surrogate mode wrote it: a non-empty
// `surrogate-lines` block (two opaque lines) follows the entries.  The
// loader skips the block, the entry still answers its point, and the flush
// at teardown writes the file back with the block empty.
TEST(PersistentCache, MemoFileWithASurrogateBlockLoadsAndReflushesWithoutIt) {
  const std::string entries = "glova-memo v1\n" + kDefaultTagLine + kMidpointEntry;
  const std::string dir = fresh_dir("glova_memo_surrogate_block");
  core::EngineConfig cfg;
  cfg.cache_path = dir + "/sal.memo";
  std::ofstream(cfg.cache_path)
      << entries << "surrogate-lines 2\nopaque line one\nopaque line two\nend\n";

  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  {
    core::EvaluationEngine engine(tb, cfg);
    ASSERT_EQ(engine.cache_size(), 1u);
    const auto x = midpoint_design(*tb);
    EXPECT_EQ(engine.evaluate_one(x, pdk::typical_corner(), {}),
              tb->evaluate(x, pdk::typical_corner(), {}));
    EXPECT_EQ(engine.stats().executed, 0u);
  }  // destructor flushes
  std::ifstream in(cfg.cache_path);
  std::stringstream flushed;
  flushed << in.rdbuf();
  EXPECT_EQ(flushed.str(), entries + "surrogate-lines 0\nend\n");
}

/// One small campaign cell (SAL behavioral, corner verification).
core::SweepSpec small_sweep(const std::string&) {
  core::SweepSpec sweep;
  sweep.base.testcase = circuits::Testcase::Sal;
  sweep.base.method = core::VerifMethod::C;
  sweep.base.max_iterations = 80;
  sweep.base.engine.cache_capacity = 65536;  // hold every executed point
  sweep.seeds = {1};
  return sweep;
}

TEST(PersistentCache, WarmCampaignRerunExecutesZeroAndIsBitIdentical) {
  const std::string dir = fresh_dir("glova_memo_campaign");
  core::CampaignConfig config;
  config.cache_dir = dir;

  core::Campaign cold(small_sweep(dir), config);
  const core::CampaignResult first = cold.run();
  ASSERT_EQ(first.entries.size(), 1u);
  EXPECT_GT(first.entries[0].result.engine_stats.executed, 0u);

  // Same sweep, fresh campaign, same cache directory: every simulation the
  // deterministic rerun requests was already recorded, so nothing executes.
  core::Campaign warm(small_sweep(dir), config);
  const core::CampaignResult second = warm.run();
  ASSERT_EQ(second.entries.size(), 1u);
  EXPECT_EQ(second.entries[0].result.engine_stats.executed, 0u)
      << "warm rerun must be answered entirely from the persistent cache";
  EXPECT_GT(second.entries[0].result.engine_stats.cache_hits, 0u);

  // Byte-identical results (wall time is the one timing-dependent field).
  const auto canonical = [](core::GlovaResult r) {
    r.wall_seconds = 0.0;
    std::ostringstream os;
    core::write_glova_result(os, r);
    return os.str();
  };
  core::GlovaResult a = first.entries[0].result;
  core::GlovaResult b = second.entries[0].result;
  // The funnel split differs by construction (that is the feature); the
  // result payload must not.
  EXPECT_EQ(a.n_simulations, b.n_simulations);
  a.n_simulations_executed = b.n_simulations_executed = 0;
  a.n_cache_hits = b.n_cache_hits = 0;
  a.engine_stats = b.engine_stats = core::EngineStats{};
  EXPECT_EQ(canonical(a), canonical(b));
}

}  // namespace
}  // namespace glova
