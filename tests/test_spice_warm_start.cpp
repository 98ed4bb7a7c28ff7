// DC warm-start tests: the per-thread cache of converged operating points,
// the iteration-count win from seeding Newton across mismatch draws, and the
// guarantee that warm starts never move converged solutions beyond vtol.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/registry.hpp"
#include "circuits/spice_backend.hpp"
#include "common/rng.hpp"
#include "core/evaluation_engine.hpp"
#include "pdk/variation.hpp"
#include "spice/circuit.hpp"
#include "spice/counters.hpp"
#include "spice/simulator.hpp"
#include "spice/warm_start.hpp"

namespace glova::spice {
namespace {

circuits::StrongArmLatchSpice& sal_testbench() {
  static circuits::StrongArmLatchSpice sal;
  return sal;
}

std::vector<double> sal_sizing() {
  const std::vector<double> x01 = {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2,
                                   0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0.01};
  return sal_testbench().sizing().denormalize(x01);
}

Circuit sal_netlist(std::span<const double> h = {}) {
  return sal_testbench().build_netlist(sal_sizing(), pdk::typical_corner(), h);
}

/// Every draw of `hs` at the typical corner, evaluated under `context`.
std::vector<std::vector<double>> evaluate_under(const EvaluationContext& context,
                                                const circuits::Testbench& tb,
                                                std::span<const double> x,
                                                const std::vector<std::vector<double>>& hs) {
  const ScopedContext scope(context);
  std::vector<std::vector<double>> out;
  for (const auto& h : hs) out.push_back(tb.evaluate(x, pdk::typical_corner(), h));
  return out;
}

TEST(DcWarmStart, WarmStartedOpTakesStrictlyFewerIterations) {
  const Circuit ckt = sal_netlist();
  Simulator sim(ckt);
  const OpResult cold = sim.operating_point();
  ASSERT_TRUE(cold.converged);
  EXPECT_FALSE(cold.warm_started);
  EXPECT_GT(cold.iterations, 1);

  const OpResult warm = sim.operating_point(&cold);
  ASSERT_TRUE(warm.converged);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_LT(warm.iterations, cold.iterations);

  // The warm start changes the Newton trajectory, never the solution
  // (beyond vtol).
  ASSERT_EQ(warm.node_voltages.size(), cold.node_voltages.size());
  for (std::size_t nd = 0; nd < cold.node_voltages.size(); ++nd) {
    EXPECT_NEAR(warm.node_voltages[nd], cold.node_voltages[nd], 10 * SimulatorOptions{}.vtol);
  }
}

TEST(DcWarmStart, MismatchDrawSeededFromNominalOpConvergesFaster) {
  // The realistic reuse pattern: the nominal design's DC op seeds a
  // *different* circuit instance — a mismatch draw of the same design.
  Rng rng(7);
  const auto layout = sal_testbench().mismatch_layout(sal_sizing(), true);
  const auto hs = pdk::sample_mismatch_set(layout, 1, rng, pdk::GlobalMode::PerSample);

  const Circuit nominal = sal_netlist();
  const OpResult nominal_op = Simulator(nominal).operating_point();
  ASSERT_TRUE(nominal_op.converged);

  const Circuit drawn = sal_netlist(hs[0]);
  Simulator sim(drawn);
  const OpResult cold = sim.operating_point();
  const OpResult warm = sim.operating_point(&nominal_op);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(warm.converged);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_LT(warm.iterations, cold.iterations);
  for (std::size_t nd = 0; nd < cold.node_voltages.size(); ++nd) {
    EXPECT_NEAR(warm.node_voltages[nd], cold.node_voltages[nd], 10 * SimulatorOptions{}.vtol);
  }
}

TEST(DcWarmStart, TransientReportsIterationCountersAndDcOp) {
  const Circuit ckt = sal_netlist();
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 0.4e-9;
  spec.dt = 2e-12;
  spec.record = {"out_a", "out_b"};

  const TransientResult cold = sim.transient(spec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_TRUE(cold.dc_op.converged);
  EXPECT_GT(cold.dc_iterations, 0);
  EXPECT_GE(cold.newton_iterations, cold.times.size() - 1);  // >= 1 per step

  const TransientResult warm = sim.transient(spec, &cold.dc_op);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.dc_op.warm_started);
  EXPECT_LT(warm.dc_iterations, cold.dc_iterations);

  // Same waveforms to within solver tolerance.
  ASSERT_EQ(warm.times.size(), cold.times.size());
  const auto& a = cold.trace("out_a");
  const auto& b = warm.trace("out_a");
  for (std::size_t i = 0; i < a.size(); i += 25) {
    EXPECT_NEAR(a[i], b[i], 1e-6);
  }
}

TEST(DcWarmStart, BogusWarmStartFallsBackToColdPath) {
  const Circuit ckt = sal_netlist();
  Simulator sim(ckt);
  OpResult bogus;
  bogus.converged = true;
  bogus.node_voltages.assign(3, 0.0);  // wrong shape: must be ignored
  bogus.vsource_currents.assign(1, 0.0);
  const OpResult op = sim.operating_point(&bogus);
  ASSERT_TRUE(op.converged);
  EXPECT_FALSE(op.warm_started);
}

TEST(DcWarmStart, CacheLruEvictionAndStats) {
  SpiceCounterBlock counts;
  EvaluationContext context;
  context.counters = &counts;
  const ScopedContext scope(context);
  DcWarmStartCache cache(2);
  OpResult op;
  op.converged = true;
  op.node_voltages = {0.0, 1.0};
  op.vsource_currents = {2.0};

  const auto key = [](std::int64_t v) { return DcWarmStartCache::Key{v}; };
  EXPECT_EQ(cache.lookup(key(1)), nullptr);
  cache.store(key(1), op);
  cache.store(key(2), op);
  ASSERT_NE(cache.lookup(key(1)), nullptr);  // refreshes 1
  cache.store(key(3), op);                   // evicts 2 (LRU)
  EXPECT_EQ(cache.lookup(key(2)), nullptr);
  ASSERT_NE(cache.lookup(key(3)), nullptr);
  EXPECT_EQ(cache.lookup(key(3))->vsource_currents[0], 2.0);

  OpResult unconverged;
  unconverged.converged = false;
  cache.store(key(9), unconverged);  // not worth caching
  EXPECT_EQ(cache.lookup(key(9)), nullptr);

  EXPECT_EQ(counts.dc_warm_stores, 3u);
  EXPECT_GE(counts.dc_warm_hits, 3u);
  EXPECT_GE(counts.dc_warm_misses, 3u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DcWarmStart, KeyDistinguishesDesignCornerAndTag) {
  const std::vector<double> x1 = {1e-6, 2e-6};
  std::vector<double> x2 = x1;
  x2[1] += 1e-9;
  const auto k1 = make_dc_key(1, x1, pdk::typical_corner());
  EXPECT_EQ(k1, make_dc_key(1, x1, pdk::typical_corner()));
  EXPECT_NE(k1, make_dc_key(2, x1, pdk::typical_corner()));
  EXPECT_NE(k1, make_dc_key(1, x2, pdk::typical_corner()));
  pdk::PvtCorner hot = pdk::typical_corner();
  hot.temp_c += 50.0;
  EXPECT_NE(k1, make_dc_key(1, x1, hot));
}

TEST(DcWarmStart, SalEvaluateWarmMatchesColdWithinTolerance) {
  auto& sal = sal_testbench();
  const auto x = sal_sizing();
  Rng rng(11);
  const auto layout = sal.mismatch_layout(x, true);
  const auto hs = pdk::sample_mismatch_set(layout, 3, rng, pdk::GlobalMode::PerSample);

  EvaluationContext cold_context;
  cold_context.dc_warm_start = false;
  const auto cold = evaluate_under(cold_context, sal, x, hs);

  thread_local_dc_cache().clear();
  SpiceCounterBlock counts;
  EvaluationContext warm_context;
  warm_context.counters = &counts;
  const auto warm = evaluate_under(warm_context, sal, x, hs);

  EXPECT_EQ(counts.dc_warm_misses, 1u);  // first draw seeds the cache
  EXPECT_EQ(counts.dc_warm_stores, 1u);
  EXPECT_EQ(counts.dc_warm_hits, 2u);    // subsequent draws of the same design hit

  for (std::size_t i = 0; i < hs.size(); ++i) {
    ASSERT_EQ(warm[i].size(), cold[i].size());
    for (std::size_t mi = 0; mi < cold[i].size(); ++mi) {
      EXPECT_NEAR(warm[i][mi], cold[i][mi], std::abs(cold[i][mi]) * 1e-6)
          << "draw " << i << " metric " << mi;
    }
  }
}

// Warm-start coverage for the FIA and DRAM OCSA netlists (ISSUE 5): hit
// counters must rise across mismatch draws of one design, and warm results
// must match cold results to within the solver's voltage tolerance (the
// same contract the SAL test above pins — a warm seed only shortens the
// Newton trajectory, with a cold fallback on failure, so converged metrics
// can differ from cold ones only below vtol, not bit-for-bit).
class NewBackendWarmStart : public ::testing::TestWithParam<int> {};

TEST_P(NewBackendWarmStart, HitCountersRiseAndWarmMatchesCold) {
  const circuits::Testcase tc =
      GetParam() == 0 ? circuits::Testcase::Fia : circuits::Testcase::DramOcsa;
  const auto tb = circuits::make_testbench(tc, circuits::Backend::Spice);
  std::vector<double> x01(tb->sizing().dimension(), 0.45);
  const auto x = tb->sizing().denormalize(x01);
  Rng rng(21 + GetParam());
  const auto layout = tb->mismatch_layout(x, false);
  const auto hs = pdk::sample_mismatch_set(layout, 3, rng, pdk::GlobalMode::Zero);

  EvaluationContext cold_context;
  cold_context.dc_warm_start = false;
  const auto cold = evaluate_under(cold_context, *tb, x, hs);

  thread_local_dc_cache().clear();
  SpiceCounterBlock counts;
  EvaluationContext warm_context;
  warm_context.counters = &counts;
  const auto warm = evaluate_under(warm_context, *tb, x, hs);

  // The DRAM testbench runs one transient per data polarity (two cache
  // entries per design); the FIA runs one.
  const std::uint64_t solves_per_eval = tc == circuits::Testcase::DramOcsa ? 2u : 1u;
  EXPECT_EQ(counts.dc_warm_misses, solves_per_eval);     // first draw seeds the cache
  EXPECT_EQ(counts.dc_warm_stores, solves_per_eval);
  EXPECT_EQ(counts.dc_warm_hits, 2u * solves_per_eval);  // later draws hit

  for (std::size_t i = 0; i < hs.size(); ++i) {
    ASSERT_EQ(warm[i].size(), cold[i].size());
    for (std::size_t mi = 0; mi < cold[i].size(); ++mi) {
      EXPECT_NEAR(warm[i][mi], cold[i][mi], std::abs(cold[i][mi]) * 1e-6)
          << circuits::to_string(tc) << " draw " << i << " metric " << mi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FiaAndDram, NewBackendWarmStart, ::testing::Range(0, 2));

TEST(DcWarmStart, PolaritiesAndTestbenchesDoNotShareSeeds) {
  // The DRAM data-0/data-1 transients have different operating points and
  // the three testbenches share design-vector shapes at equal dimensions —
  // the cache keys must keep all of them apart.  Evaluating each backend
  // once from a cold cache must only ever miss (no cross-testbench or
  // cross-polarity hits).
  thread_local_dc_cache().clear();
  SpiceCounterBlock counts;
  EvaluationContext context;
  context.counters = &counts;
  const ScopedContext scope(context);
  for (const auto tc : circuits::all_testcases()) {
    const auto tb = circuits::make_testbench(tc, circuits::Backend::Spice);
    std::vector<double> x01(tb->sizing().dimension(), 0.45);
    const auto x = tb->sizing().denormalize(x01);
    (void)tb->evaluate(x, pdk::typical_corner(), {});
  }
  EXPECT_EQ(counts.dc_warm_hits, 0u);
  EXPECT_EQ(counts.dc_warm_misses, 4u);  // SAL + FIA + DRAM data0 + DRAM data1
  EXPECT_EQ(counts.dc_warm_stores, 4u);
}

TEST(DcWarmStart, EngineSurfacesWarmStartCounters) {
  thread_local_dc_cache().clear();

  core::EngineConfig cfg;
  cfg.parallelism = 1;  // every draw inline on this thread
  core::EvaluationEngine engine(
      circuits::make_testbench(circuits::Testcase::Sal, circuits::Backend::Spice), cfg);
  const auto& sz = engine.testbench().sizing();
  std::vector<double> x01(sz.dimension(), 0.4);
  const auto x = sz.denormalize(x01);
  Rng rng(3);
  const auto layout = engine.testbench().mismatch_layout(x, false);
  const auto hs = pdk::sample_mismatch_set(layout, 3, rng, pdk::GlobalMode::Zero);
  (void)engine.evaluate_batch(x, pdk::typical_corner(), hs);

  const core::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requested, 3u);
  EXPECT_EQ(stats.dc_warm_stores, 1u);
  EXPECT_EQ(stats.dc_warm_hits + stats.dc_warm_misses, 3u);
  EXPECT_GE(stats.dc_warm_hits, 2u);
}

}  // namespace
}  // namespace glova::spice
