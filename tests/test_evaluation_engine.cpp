// Tests for the EvaluationEngine: a default engine keeps no memo, memo
// correctness on engines with a persistent memo file (hits return identical
// metrics, distinct mismatch draws never alias), counter semantics
// (requested == hits + executed == simulation_count()), LRU bounding, and
// the parallelism cap, which also holds across concurrent callers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include "circuits/registry.hpp"
#include "common/key_hash.hpp"
#include "core/evaluation_engine.hpp"
#include "pdk/variation.hpp"

namespace glova::core {
namespace {

std::vector<double> midpoint_design(const circuits::Testbench& tb) {
  std::vector<double> x01(tb.sizing().dimension(), 0.5);
  return tb.sizing().denormalize(x01);
}

/// A config whose engine keeps a memo: only engines with a cache_path do.
/// The file is per test and removed first, so the memo starts empty.
EngineConfig memo_config(const std::string& name) {
  EngineConfig cfg;
  cfg.cache_path = ::testing::TempDir() + "glova_engine_" + name + ".memo";
  std::filesystem::remove(cfg.cache_path);
  return cfg;
}

TEST(EvaluationEngine, DefaultEngineDoesNotMemoize) {
  // Without a cache_path every request reaches the testbench: a repeated
  // point and a batch of repeated nominal draws all run.
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal));
  const auto x = midpoint_design(engine.testbench());
  const auto first = engine.evaluate_one(x, pdk::typical_corner(), {});
  EXPECT_EQ(engine.evaluate_one(x, pdk::typical_corner(), {}), first);
  const std::vector<std::vector<double>> nominal(5);
  (void)engine.evaluate_batch(x, pdk::typical_corner(), nominal);
  (void)engine.evaluate_batch(x, pdk::typical_corner(), nominal);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requested, 12u);
  EXPECT_EQ(stats.executed, stats.requested);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(EvaluationEngine, CacheHitReturnsIdenticalMetrics) {
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal),
                          memo_config("cache_hit"));
  const auto x = midpoint_design(engine.testbench());
  const auto layout = engine.testbench().mismatch_layout(x, false);
  Rng rng(7);
  const auto hs = pdk::sample_mismatch_set(layout, 1, rng, pdk::GlobalMode::Zero);

  const auto first = engine.evaluate_one(x, pdk::typical_corner(), hs[0]);
  const auto second = engine.evaluate_one(x, pdk::typical_corner(), hs[0]);
  EXPECT_EQ(first, second);  // bit-identical, not re-simulated

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requested, 2u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(EvaluationEngine, DistinctMismatchDrawsDoNotShareCacheEntries) {
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal),
                          memo_config("distinct_draws"));
  const auto x = midpoint_design(engine.testbench());
  const auto layout = engine.testbench().mismatch_layout(x, false);
  Rng rng(11);
  const auto hs = pdk::sample_mismatch_set(layout, 8, rng, pdk::GlobalMode::Zero);

  const auto batch = engine.evaluate_batch(x, pdk::typical_corner(), hs);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requested, 8u);
  EXPECT_EQ(stats.executed, 8u);  // every draw is distinct: no false sharing
  EXPECT_EQ(stats.cache_hits, 0u);
  // Different mismatch conditions really produce different metrics.
  EXPECT_NE(batch[0], batch[1]);

  // Re-requesting the same draws is now free.
  const auto again = engine.evaluate_batch(x, pdk::typical_corner(), hs);
  EXPECT_EQ(batch, again);
  EXPECT_EQ(engine.stats().executed, 8u);
  EXPECT_EQ(engine.stats().cache_hits, 8u);
}

TEST(EvaluationEngine, CountersMatchSimulationCountSemantics) {
  // simulation_count() keeps the paper's "# Simulation" meaning: every
  // *requested* evaluation counts, whether the cache answered it or not.
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal),
                          memo_config("counters"));
  const auto x = midpoint_design(engine.testbench());

  (void)engine.evaluate_one(x, pdk::typical_corner(), {});
  const std::vector<std::vector<double>> nominal(5);  // five nominal-h repeats
  (void)engine.evaluate_batch(x, pdk::typical_corner(), nominal);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(engine.simulation_count(), 6u);
  EXPECT_EQ(stats.requested, engine.simulation_count());
  EXPECT_EQ(stats.requested, stats.executed + stats.cache_hits);
  EXPECT_EQ(stats.executed, 1u);  // one real run; five answered from cache

  engine.reset_count();
  EXPECT_EQ(engine.simulation_count(), 0u);
  EXPECT_EQ(engine.stats().executed, 0u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST(EvaluationEngine, DisabledCacheAlwaysExecutes) {
  EngineConfig cfg = memo_config("disabled");
  cfg.cache_capacity = 0;
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Fia), cfg);
  const auto x = midpoint_design(engine.testbench());
  (void)engine.evaluate_one(x, pdk::typical_corner(), {});
  (void)engine.evaluate_one(x, pdk::typical_corner(), {});
  EXPECT_EQ(engine.stats().executed, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(EvaluationEngine, LruEvictionKeepsCacheBounded) {
  EngineConfig cfg = memo_config("lru_eviction");
  cfg.cache_capacity = 2;
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal), cfg);
  const auto x = midpoint_design(engine.testbench());
  const auto corners = pdk::full_corner_set();

  (void)engine.evaluate_one(x, corners[0], {});
  (void)engine.evaluate_one(x, corners[1], {});
  (void)engine.evaluate_one(x, corners[2], {});  // evicts corners[0]
  EXPECT_EQ(engine.cache_size(), 2u);

  (void)engine.evaluate_one(x, corners[0], {});  // must re-run
  EXPECT_EQ(engine.stats().executed, 4u);
  (void)engine.evaluate_one(x, corners[2], {});  // still resident
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

/// Testbench that records the maximum number of concurrent evaluations.
class ConcurrencyProbeBench final : public circuits::Testbench {
 public:
  ConcurrencyProbeBench() {
    sizing_.names = {"x0"};
    sizing_.lower = {0.0};
    sizing_.upper = {1.0};
    performance_.metrics = {
        circuits::MetricSpec{"m", "u", 1.0, 1.0, circuits::Sense::MinimizeBelow}};
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const circuits::SizingSpec& sizing() const override { return sizing_; }
  [[nodiscard]] const circuits::PerformanceSpec& performance() const override {
    return performance_;
  }
  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double>,
                                                    bool) const override {
    pdk::MismatchLayout layout;
    layout.names = {"h0"};
    layout.local_sigma = {1.0};
    layout.global_sigma = {0.0};
    return layout;
  }
  [[nodiscard]] std::vector<double> evaluate(std::span<const double>, const pdk::PvtCorner&,
                                             std::span<const double> h) const override {
    const int now = in_flight_.fetch_add(1) + 1;
    int seen = max_in_flight_.load();
    while (now > seen && !max_in_flight_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    in_flight_.fetch_sub(1);
    return {h.empty() ? 0.0 : h[0]};
  }

  [[nodiscard]] int max_in_flight() const { return max_in_flight_.load(); }

 private:
  std::string name_ = "concurrency-probe";
  circuits::SizingSpec sizing_;
  circuits::PerformanceSpec performance_;
  mutable std::atomic<int> in_flight_{0};
  mutable std::atomic<int> max_in_flight_{0};
};

TEST(EvaluationEngine, ParallelismSettingCapsFanOut) {
  const auto probe = std::make_shared<ConcurrencyProbeBench>();
  EngineConfig cfg;
  cfg.parallelism = 2;
  EvaluationEngine engine(probe, cfg);

  // 24 distinct mismatch draws so nothing is answered from the cache.
  std::vector<std::vector<double>> hs;
  for (int i = 0; i < 24; ++i) hs.push_back({static_cast<double>(i)});
  const std::vector<double> x = {0.5};
  const auto results = engine.evaluate_batch(x, pdk::typical_corner(), hs);

  ASSERT_EQ(results.size(), hs.size());
  for (std::size_t i = 0; i < hs.size(); ++i) EXPECT_EQ(results[i][0], hs[i][0]);  // order kept
  EXPECT_LE(probe->max_in_flight(), 2);
}

TEST(EvaluationEngine, ConcurrentCallersShareOneCap) {
  // The cap is per engine, not per call: batches and single evaluations
  // issued from several threads at once draw from one counting semaphore.
  const auto probe = std::make_shared<ConcurrencyProbeBench>();
  EngineConfig cfg;
  cfg.parallelism = 3;
  EvaluationEngine engine(probe, cfg);

  const std::vector<double> x = {0.5};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&engine, &x, t] {
      std::vector<std::vector<double>> hs;
      for (int i = 0; i < 8; ++i) hs.push_back({100.0 * t + i});
      (void)engine.evaluate_batch(x, pdk::typical_corner(), hs);
      for (int i = 0; i < 4; ++i) {
        const std::vector<double> h = {100.0 * t + 50.0 + i};
        (void)engine.evaluate_one(x, pdk::typical_corner(), h);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_LE(probe->max_in_flight(), 3);
  EXPECT_EQ(engine.stats().executed, 36u);
}

/// Minimal three-way-mismatch testbench for key-quantization properties:
/// metrics echo the draw so result identity implies key identity.
class EchoBench final : public circuits::Testbench {
 public:
  EchoBench() {
    sizing_.names = {"x0"};
    sizing_.lower = {0.0};
    sizing_.upper = {1.0};
    performance_.metrics = {
        circuits::MetricSpec{"m", "u", 1.0, 1.0, circuits::Sense::MinimizeBelow}};
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const circuits::SizingSpec& sizing() const override { return sizing_; }
  [[nodiscard]] const circuits::PerformanceSpec& performance() const override {
    return performance_;
  }
  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double>,
                                                    bool) const override {
    pdk::MismatchLayout layout;
    layout.names = {"h0", "h1", "h2"};
    layout.local_sigma = {1.0, 1.0, 1.0};
    layout.global_sigma = {0.0, 0.0, 0.0};
    return layout;
  }
  [[nodiscard]] std::vector<double> evaluate(std::span<const double>, const pdk::PvtCorner&,
                                             std::span<const double> h) const override {
    double sum = 0.0;
    for (std::size_t j = 0; j < h.size(); ++j) sum += (static_cast<double>(j) + 1.0) * h[j];
    return {sum};
  }

 private:
  std::string name_ = "echo-bench";
  circuits::SizingSpec sizing_;
  circuits::PerformanceSpec performance_;
};

TEST(EvaluationEngine, MemoKeyQuantizationProperty) {
  // Property-test the memo-key quantization on randomized draws: draws that
  // differ by at least one cache quantum in some coordinate never alias
  // (every grid-distinct draw executes), and sub-quantum perturbations of a
  // cached draw always hit.  parallelism=1 keeps intra-batch duplicate
  // resolution deterministic (inserts land in submission order).
  const double q = kKeyQuantum;
  EngineConfig cfg = memo_config("key_quantization");
  cfg.cache_capacity = 4096;
  cfg.parallelism = 1;
  EvaluationEngine engine(std::make_shared<EchoBench>(), cfg);
  const std::vector<double> x = {0.5};

  Rng rng(2026);
  std::vector<std::vector<double>> hs;
  std::set<std::array<long long, 3>> grid_distinct;
  for (int i = 0; i < 200; ++i) {
    std::array<long long, 3> g{};
    std::vector<double> h(3);
    for (int j = 0; j < 3; ++j) {
      g[j] = std::llround(rng.uniform(-1000.0, 1000.0));
      h[j] = static_cast<double>(g[j]) * q;  // exactly on the quantization grid
    }
    grid_distinct.insert(g);
    hs.push_back(std::move(h));
  }
  (void)engine.evaluate_batch(x, pdk::typical_corner(), hs);
  // No aliasing: every grid-distinct draw was simulated; grid-equal repeats
  // were answered from cache.
  EXPECT_EQ(engine.stats().executed, grid_distinct.size());
  EXPECT_EQ(engine.stats().cache_hits, hs.size() - grid_distinct.size());

  // Perturbing every coordinate by strictly less than half a quantum rounds
  // to the same key: the whole batch must be served from cache.
  std::vector<std::vector<double>> perturbed = hs;
  for (auto& h : perturbed) {
    for (double& v : h) v += q * rng.uniform(-0.49, 0.49);
  }
  (void)engine.evaluate_batch(x, pdk::typical_corner(), perturbed);
  EXPECT_EQ(engine.stats().executed, grid_distinct.size()) << "sub-quantum perturbation re-ran";
  EXPECT_EQ(engine.stats().cache_hits, 2 * hs.size() - grid_distinct.size());
}

TEST(EvaluationEngine, SequentialParallelismNeverUsesThePool) {
  const auto probe = std::make_shared<ConcurrencyProbeBench>();
  EngineConfig cfg;
  cfg.parallelism = 1;
  EvaluationEngine engine(probe, cfg);
  std::vector<std::vector<double>> hs;
  for (int i = 0; i < 20; ++i) hs.push_back({static_cast<double>(i)});
  (void)engine.evaluate_batch(std::vector<double>{0.5}, pdk::typical_corner(), hs);
  EXPECT_EQ(probe->max_in_flight(), 1);
}

/// The SPICE fields of an EngineStats, for whole-block comparison.
std::array<std::uint64_t, 5> spice_fields(const EngineStats& s) {
  return {s.dc_warm_hits, s.dc_warm_misses, s.dc_warm_stores, s.steps_accepted,
          s.steps_rejected};
}

// Two engines with different numerics, interleaved batch by batch on the
// shared pool beside bare evaluations on the calling thread, each keep to
// their own settings and counts.  The warm-start-off engine reproduces its
// solo run's metrics and SPICE counts bit for bit and never touches the
// warm-start cache.  The warm-start-on engine's cache lookups are exactly
// its own transients (one per SAL evaluation), none of the bare ones.  Its
// metrics are not compared bit for bit: a warm seed depends on which pool
// worker ran which draw before, which is only reproducible to vtol.
TEST(EvaluationEngine, InterleavedEnginesWithDifferentNumericsMatchTheirSoloRuns) {
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Spice);
  EngineConfig cold;
  cold.parallelism = 0;  // batches fan out on the pool
  cold.dc_warm_start = false;
  EngineConfig warm = cold;
  warm.dc_warm_start = true;

  const auto x = midpoint_design(*tb);
  Rng rng(5);
  const auto hs =
      pdk::sample_mismatch_set(tb->mismatch_layout(x, false), 16, rng, pdk::GlobalMode::Zero);
  const auto all_corners = pdk::full_corner_set();
  const std::array<pdk::PvtCorner, 2> corners = {all_corners.front(), all_corners.back()};

  using Batches = std::vector<std::vector<std::vector<double>>>;
  Batches alone;
  EngineStats alone_stats;
  {
    EvaluationEngine engine(tb, cold);
    for (const auto& corner : corners) alone.push_back(engine.evaluate_batch(x, corner, hs));
    alone_stats = engine.stats();
  }
  EXPECT_GT(alone_stats.steps_accepted, 0u);

  EvaluationEngine a(tb, cold);
  EvaluationEngine b(tb, warm);
  Batches mixed_a;
  for (const auto& corner : corners) {
    mixed_a.push_back(a.evaluate_batch(x, corner, hs));
    (void)b.evaluate_batch(x, corner, hs);
    // Outside every engine: warm start on, counted in the process totals only.
    (void)tb->evaluate(x, corner, hs.front());
  }
  EXPECT_EQ(mixed_a, alone);
  const EngineStats sa = a.stats();
  EXPECT_EQ(spice_fields(sa), spice_fields(alone_stats));
  EXPECT_EQ(sa.dc_warm_hits + sa.dc_warm_misses + sa.dc_warm_stores, 0u);
  const EngineStats sb = b.stats();
  EXPECT_EQ(sb.executed, 2 * hs.size());
  EXPECT_EQ(sb.dc_warm_hits + sb.dc_warm_misses, sb.executed);
  EXPECT_GT(sb.dc_warm_hits, 0u);
  EXPECT_GT(sb.steps_accepted, 0u);
}

// An engine-state frame written before the lockstep batch path and the Newton
// bypass were retired (SAL on SPICE, adaptive grid, three draws), by a
// release whose default engine still kept a memo.  Its carried line holds the
// four retired batch/bypass counters at 0 between the warm-start and timestep
// counters.  An engine with a memo must re-save the frame byte for byte; a
// default engine drops the three entries and re-saves with `cache 0`.  Both
// must land the surviving counters in their fields.
TEST(EvaluationEngine, StateFrameWithRetiredCountersReSavesByteIdentically) {
  const std::string frame =
      "engine-state 1\n"
      "counters 3 3 0 0 0\n"
      "carried 2 1 1 0 0 0 0 707 34 0 0 0\n"
      "cache 3\n"
      "key 41 1 900000000000000 26999999999999996 14 16540000000 16540000000 16540000000 "
      "16540000000 16540000000 16540000000 180000000 180000000 180000000 180000000 "
      "180000000 180000000 2752 2752 22 1390163471398 -8073372385858 131428176692 "
      "-20330363319274 -1059155887564 13360998163792 2312636501558 1613980964695 "
      "-532608993740 -2974891188818 824014303684 -11058658672669 3858280852351 769808079413 "
      "2184120465183 2395962779979 3584965766123 6634160313187 1592729277299 12955778697559 "
      "27442053823 -365347267803\n"
      "val 4 1.5157985465132094e-05 7.3705189966987404e-09 1.9999999999999999e-11 "
      "4.3245033264620046e-05\n"
      "key 41 1 900000000000000 26999999999999996 14 16540000000 16540000000 16540000000 "
      "16540000000 16540000000 16540000000 180000000 180000000 180000000 180000000 "
      "180000000 180000000 2752 2752 22 -2204271864049 -15228584542570 -3260821457722 "
      "-4492696625551 -1367463223276 1904550974792 1349388083645 7912493421854 -9178631797 "
      "-11110563333590 -1085579451615 -11011768678073 1112062495726 730678341938 "
      "-550129739358 7137084737504 -722858552507 -1333633993726 125167333262 11227920414112 "
      "2296516978130 1382804816842\n"
      "val 4 1.6161041707600288e-05 7.1459808392000268e-09 4.2920858578204117e-11 "
      "4.3335453550796601e-05\n"
      "key 19 1 900000000000000 26999999999999996 14 16540000000 16540000000 16540000000 "
      "16540000000 16540000000 16540000000 180000000 180000000 180000000 180000000 "
      "180000000 180000000 2752 2752 0\n"
      "val 4 1.5299755014435429e-05 7.2751524044664771e-09 1.9999999999999999e-11 "
      "4.3373456954211326e-05\n";
  const std::string without_entries = frame.substr(0, frame.find("cache 3\n")) + "cache 0\n";
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Spice);
  for (const bool with_memo : {true, false}) {
    const EngineConfig config = with_memo ? memo_config("retired_counters") : EngineConfig{};
    EvaluationEngine engine(tb, config);
    std::istringstream in(frame);
    engine.load_state(in);
    std::ostringstream out;
    engine.save_state(out);
    EXPECT_EQ(out.str(), with_memo ? frame : without_entries);

    const EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requested, 3u);
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.dc_warm_hits, 2u);
    EXPECT_EQ(stats.dc_warm_misses, 1u);
    EXPECT_EQ(stats.dc_warm_stores, 1u);
    EXPECT_EQ(stats.steps_accepted, 707u);
    EXPECT_EQ(stats.steps_rejected, 34u);
    EXPECT_EQ(engine.cache_size(), with_memo ? 3u : 0u);
  }
}

// A signed counter in either counter line is malformed, not 2^64 - 1.
TEST(EvaluationEngine, StateFrameWithASignedCounterFailsToLoad) {
  for (const char* frame :
       {"engine-state 1\ncounters -1 3 0 0 0\ncarried 2 1 1 0 0 0 0 707 34 0 0 0\ncache 0\n",
        "engine-state 1\ncounters 3 3 0 0 0\ncarried 2 -1 1 0 0 0 0 707 34 0 0 0\ncache 0\n"}) {
    EvaluationEngine engine(std::make_shared<EchoBench>());
    std::istringstream in(frame);
    EXPECT_THROW(engine.load_state(in), std::runtime_error) << frame;
  }
}

// An `engine-state 2` frame, which only the retired surrogate=1 mode wrote
// (SAL behavioral, one cached draw, no model built yet).  It must fail with
// a pointer to the retired-keys docs instead of loading half a session.
TEST(EvaluationEngine, SurrogateStateFrameFailsWithADocsPointer) {
  const std::string frame =
      "engine-state 2\n"
      "counters 1 1 0 0 0\n"
      "carried 0 0 0 0 0 0 0 0 0 0 0 0\n"
      "surrogate-counters 0 0\n"
      "surrogate-model 0\n"
      "cache 1\n"
      "key 19 1 900000000000000 26999999999999996 14 16540000000 16540000000 16540000000 "
      "16540000000 16540000000 16540000000 180000000 180000000 180000000 180000000 "
      "180000000 180000000 2752 2752 0\n"
      "val 4 0.00040532783151035772 1.5801978999547426e-09 2.0674653238861908e-09 "
      "4.3373456954211326e-05\n";
  EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::Sal));
  std::istringstream in(frame);
  try {
    engine.load_state(in);
    FAIL() << "an engine-state 2 frame must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("docs/run_spec.md#retired-keys"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_EQ(engine.stats().requested, 0u);
}

}  // namespace
}  // namespace glova::core
