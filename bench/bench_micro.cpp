// Micro-benchmarks (google-benchmark) for the hot paths under the tables:
// behavioral circuit evaluation, mismatch sampling, the SPICE transient,
// network updates, and the reordering math.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "circuits/registry.hpp"
#include "circuits/spice_backend.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/evaluation_engine.hpp"
#include "core/optimizer.hpp"
#include "core/reordering.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "opt/gp.hpp"
#include "pdk/variation.hpp"
#include "rl/agent.hpp"
#include "rl/ensemble_critic.hpp"
#include "spice/lu.hpp"
#include "spice/mos_model.hpp"
#include "spice/simulator.hpp"
#include "spice/warm_start.hpp"
#include "stats/pearson.hpp"

using namespace glova;

static void BM_BehavioralEval(benchmark::State& state) {
  const auto tb =
      circuits::make_testbench(static_cast<circuits::Testcase>(state.range(0)));
  const auto& sz = tb->sizing();
  std::vector<double> x01(sz.dimension(), 0.5);
  const auto x = sz.denormalize(x01);
  const auto layout = tb->mismatch_layout(x, true);
  Rng rng(1);
  const auto hs = pdk::sample_mismatch_set(layout, 1, rng, pdk::GlobalMode::PerSample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb->evaluate(x, pdk::typical_corner(), hs[0]));
  }
}
BENCHMARK(BM_BehavioralEval)->Arg(0)->Arg(1)->Arg(2);

static void BM_MismatchSample(benchmark::State& state) {
  const auto tb = circuits::make_testbench(circuits::Testcase::DramOcsa);
  const auto& sz = tb->sizing();
  std::vector<double> x01(sz.dimension(), 0.5);
  const auto x = sz.denormalize(x01);
  const auto layout = tb->mismatch_layout(x, true);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pdk::sample_mismatch_set(layout, state.range(0), rng, pdk::GlobalMode::PerSample));
  }
}
BENCHMARK(BM_MismatchSample)->Arg(3)->Arg(100)->Arg(1000);

static void BM_SpiceSalTransient(benchmark::State& state) {
  // The SPICE run path under every SAL evaluation: netlist build, DC op,
  // LTE-adaptive transient, measurement extraction.  Warm start disabled so
  // the number is a clean cold-evaluation cost.  The argument only keeps
  // the row name recorded in bench/BENCH_spice.json.
  spice::EvaluationContext context;
  context.dc_warm_start = false;
  const spice::ScopedContext scope(context);
  circuits::StrongArmLatchSpice sal;
  const auto& sz = sal.sizing();
  std::vector<double> x01 = {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0, 0, 0, 0, 0, 0.05, 0.01};
  const auto x = sz.denormalize(x01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sal.evaluate(x, pdk::typical_corner(), {}));
  }
}
BENCHMARK(BM_SpiceSalTransient)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_SpiceDrawGroup(benchmark::State& state) {
  // 16 mismatch draws of one SAL (design, corner) cell, the inner loop of a
  // verification batch: sequential per-draw evaluate() with DC warm starts.
  // The warm-start cache is cleared before each group, so the first draw
  // solves cold and seeds the other 15.  The argument only keeps the row
  // name recorded in bench/BENCH_spice.json.
  constexpr std::size_t kDraws = 16;
  circuits::StrongArmLatchSpice sal;
  const auto& sz = sal.sizing();
  std::vector<double> x01 = {0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0, 0, 0, 0, 0, 0.05, 0.01};
  const auto x = sz.denormalize(x01);
  const auto layout = sal.mismatch_layout(x, false);
  Rng rng(9);
  const auto hs = pdk::sample_mismatch_set(layout, kDraws, rng, pdk::GlobalMode::Zero);
  for (auto _ : state) {
    state.PauseTiming();
    spice::thread_local_dc_cache().clear();
    state.ResumeTiming();
    for (const auto& h : hs) {
      benchmark::DoNotOptimize(sal.evaluate(x, pdk::typical_corner(), h));
    }
  }
  state.counters["draws_per_s"] = benchmark::Counter(
      static_cast<double>(kDraws) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpiceDrawGroup)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_SpiceAssemblyOnly(benchmark::State& state) {
  // One Newton iteration's assembly through the compiled stamp plan: memcpy
  // of the cached static matrix + RHS base, then the MOSFET companion pass.
  circuits::StrongArmLatchSpice sal;
  const auto x = sal.sizing().denormalize(
      std::vector<double>{0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0, 0, 0, 0, 0, 0.05, 0.01});
  const spice::Circuit ckt = sal.build_netlist(x, pdk::typical_corner(), {});
  spice::StampPlan plan(ckt, {});
  std::vector<double> x_prev(plan.padded_size(), 0.0);
  std::vector<double> cap_current(ckt.capacitors().size(), 0.0);
  spice::AssemblyInputs in;
  in.mode = spice::AnalysisMode::Transient;
  in.time = 1e-9;
  in.dt = 2e-12;
  in.trapezoidal = true;
  in.x_prev = x_prev;
  in.cap_current_prev = cap_current;
  plan.begin_solve(in);
  std::vector<double> xg(plan.padded_size(), 0.45);
  plan.load_pinned(xg);
  spice::DenseMatrix g(plan.unknown_count());
  std::vector<double> rhs(plan.unknown_count() + 1, 0.0);
  spice::ChannelLanes lanes;
  for (auto _ : state) {
    plan.stamp(xg, g, rhs, lanes);
    benchmark::DoNotOptimize(g.data());
    benchmark::DoNotOptimize(rhs.data());
  }
}
BENCHMARK(BM_SpiceAssemblyOnly);

static void BM_EkvChannel(benchmark::State& state) {
  // The channel kernel over SAL's nine MOSFETs at their DC operating point:
  // orient pass, one lane pass, finish pass — the channel work of one
  // Newton iteration, without the stamping around it.
  circuits::StrongArmLatchSpice sal;
  const auto x = sal.sizing().denormalize(
      std::vector<double>{0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0, 0, 0, 0, 0, 0.05, 0.01});
  const spice::Circuit ckt = sal.build_netlist(x, pdk::typical_corner(), {});
  const spice::OpResult op = spice::Simulator(ckt).operating_point();
  const std::vector<double>& v = op.node_voltages;
  std::vector<spice::MosChannel> channels;
  for (const spice::Mosfet& m : ckt.mosfets()) {
    channels.push_back(spice::mos_channel(m.params, m.w_over_l()));
  }
  spice::ChannelLanes lanes;
  for (auto _ : state) {
    lanes.prepare(channels.size());
    for (std::size_t i = 0; i < channels.size(); ++i) {
      const spice::Mosfet& m = ckt.mosfets()[i];
      lanes.orient(i, channels[i], v[m.gate], v[m.drain], v[m.source]);
    }
    lanes.evaluate();
    for (std::size_t i = 0; i < channels.size(); ++i) {
      benchmark::DoNotOptimize(lanes.finish(i, channels[i]));
    }
  }
  state.counters["channels"] = static_cast<double>(channels.size());
}
BENCHMARK(BM_EkvChannel);

static void BM_SpiceNewtonOp(benchmark::State& state) {
  // A full DC Newton solve (assembly + fused LU each iteration) on the SAL
  // netlist with a warm workspace: cold solves at arg 0, warm-started at 1.
  circuits::StrongArmLatchSpice sal;
  const auto x = sal.sizing().denormalize(
      std::vector<double>{0.2, 0.3, 0.2, 0.2, 0.2, 0.1, 0.2, 0, 0, 0, 0, 0, 0.05, 0.01});
  const spice::Circuit ckt = sal.build_netlist(x, pdk::typical_corner(), {});
  spice::Simulator sim(ckt);
  const spice::OpResult seed = sim.operating_point();
  const spice::OpResult* warm = state.range(0) != 0 ? &seed : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.operating_point(warm));
  }
}
BENCHMARK(BM_SpiceNewtonOp)->Arg(0)->Arg(1);

static void BM_LuSolve(benchmark::State& state) {
  // The Newton loop's fused factor-and-solve at the testbenches' sizes
  // (FIA 4, SAL 5, OCSA+SH 6 unknowns) on a random system.  The kernel
  // destroys its matrix and RHS, so each iteration restores both by copy
  // into storage sized once: nothing in the timed loop allocates.
  const std::size_t n = state.range(0);
  Rng rng(2);
  spice::DenseMatrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a.at(i, j) = rng.uniform(-1.0, 1.0);
    a.at(i, i) += static_cast<double>(n);
  }
  const std::vector<double> b = rng.uniform_vector(n, -1.0, 1.0);
  spice::DenseMatrix m = a;
  std::vector<double> rhs = b;
  std::vector<double> x(n);
  for (auto _ : state) {
    m = a;
    rhs = b;
    benchmark::DoNotOptimize(spice::factor_solve_in_place(m, rhs, x));
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuSolve)->Arg(4)->Arg(5)->Arg(6);

static void BM_EngineBatch(benchmark::State& state) {
  // The evaluation funnel under every table: one design, one corner, a batch
  // of fresh mismatch draws through a default engine, which keeps no memo.
  core::EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::DramOcsa));
  const auto& sz = engine.testbench().sizing();
  std::vector<double> x01(sz.dimension(), 0.5);
  const auto x = sz.denormalize(x01);
  const auto layout = engine.testbench().mismatch_layout(x, false);
  Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    const auto hs =
        pdk::sample_mismatch_set(layout, state.range(0), rng, pdk::GlobalMode::Zero);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.evaluate_batch(x, pdk::typical_corner(), hs));
  }
}
BENCHMARK(BM_EngineBatch)->Arg(3)->Arg(32)->Arg(100);

static void BM_EngineCacheHit(benchmark::State& state) {
  // A hit in the persistent memo, which only an engine with a cache_path
  // keeps.  The file is removed before and after, so every run starts cold.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "glova_bench_memo_hit.memo";
  std::filesystem::remove(path);
  {
    core::EngineConfig cfg;
    cfg.cache_path = path.string();
    core::EvaluationEngine engine(circuits::make_testbench(circuits::Testcase::DramOcsa), cfg);
    const auto& sz = engine.testbench().sizing();
    std::vector<double> x01(sz.dimension(), 0.5);
    const auto x = sz.denormalize(x01);
    (void)engine.evaluate_one(x, pdk::typical_corner(), {});  // prime
    for (auto _ : state) {
      benchmark::DoNotOptimize(engine.evaluate_one(x, pdk::typical_corner(), {}));
    }
  }  // the destructor flushes the memo to the file
  std::filesystem::remove(path);
}
BENCHMARK(BM_EngineCacheHit);

static void BM_GlovaRunCornerOnly(benchmark::State& state) {
  // End-to-end GlovaOptimizer::run — TuRBO init, RL loop, verification —
  // on the behavioral SAL bench, corner-only regime, fixed seed.  Wall time,
  // and cpu_time of every thread (the critic members run on the pool).
  set_log_level(LogLevel::Warn);
  const auto tb = circuits::make_testbench(circuits::Testcase::Sal);
  for (auto _ : state) {
    core::GlovaConfig cfg;
    cfg.method = core::VerifMethod::C;
    cfg.seed = 1;
    cfg.max_iterations = 200;
    core::GlovaOptimizer opt(tb, cfg);
    const auto res = opt.run();
    benchmark::DoNotOptimize(res.n_simulations);
  }
}
BENCHMARK(BM_GlovaRunCornerOnly)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// One EnsembleCritic::train at the SAL design dimension: five member steps
// on a batch of 10, fanned out on the process pool.  Timed in wall time, with
// cpu_time summed over every thread of the process (the pool's workers too).
static void BM_CriticUpdate(benchmark::State& state) {
  Rng rng(3);
  rl::CriticConfig cfg;
  rl::EnsembleCritic critic(14, cfg, rng);
  std::vector<rl::Experience> data(10);
  std::vector<const rl::Experience*> batch;
  for (rl::Experience& e : data) {
    e.x01 = rng.uniform_vector(14, 0.0, 1.0);
    e.reward = rng.uniform(-1.0, 0.2);
    batch.push_back(&e);
  }
  const std::vector<std::vector<const rl::Experience*>> batches(critic.ensemble_size(), batch);
  for (auto _ : state) benchmark::DoNotOptimize(critic.train(batches));
}
BENCHMARK(BM_CriticUpdate)->MeasureProcessCPUTime()->UseRealTime();

// One update(buffer, rounds) at the SAL design dimension: per round five
// critic steps plus the actor step through the frozen critic.  /3 is a
// GLOVA iteration's.  Timed like BM_CriticUpdate.
static void BM_AgentUpdate(benchmark::State& state) {
  const std::size_t rounds = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  rl::WorstCaseReplayBuffer buffer;
  for (int i = 0; i < 64; ++i) buffer.add(rng.uniform_vector(14, 0.0, 1.0), rng.uniform(-1.0, 0.2));
  rl::RiskSensitiveAgent agent(14, rl::AgentConfig{}, rng.split(1));
  for (auto _ : state) benchmark::DoNotOptimize(agent.update(buffer, rounds));
}
BENCHMARK(BM_AgentUpdate)->Arg(1)->Arg(3)->MeasureProcessCPUTime()->UseRealTime();

// One forward and one backward with parameter gradients of a batch of n
// samples through a critic member ({14, 64, 64, 64, 1}); n = 1 is the
// single-sample cost of bound() and propose().
static void BM_MlpBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const nn::Mlp net({14, 64, 64, 64, 1}, nn::Activation::Tanh, nn::Activation::Identity, rng);
  const std::vector<double> x = rng.uniform_vector(14 * n, 0.0, 1.0);  // lane-major batch
  const std::vector<double> dLdy = rng.uniform_vector(n, -0.1, 0.1);
  std::vector<double> grad(net.parameter_count(), 0.0);
  nn::Mlp::Workspace ws;
  nn::Mlp::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x, ws).data());
    net.backward(ws, scratch, dLdy, grad, {});
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_MlpBatch)->Arg(1)->Arg(8)->Arg(10);

// One Adam::step over n parameters: a critic member (9,345) and the actor
// (10,190) at p = 14.  Each critic update takes five of the first, each
// agent update one of the second.
static void BM_AdamStep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> params = rng.uniform_vector(n, -0.5, 0.5);
  const std::vector<double> grad = rng.uniform_vector(n, -0.1, 0.1);
  nn::Adam adam(n);
  for (auto _ : state) {
    adam.step(params, grad);
    benchmark::DoNotOptimize(params.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_AdamStep)->Arg(9345)->Arg(10190);

static void BM_HScoreReordering(benchmark::State& state) {
  Rng rng(4);
  const std::size_t n = state.range(0);
  const std::size_t r = 21;
  std::vector<std::vector<double>> hs(n);
  for (auto& h : hs) h = rng.normal_vector(r);
  const std::vector<double> rho = rng.normal_vector(r);
  for (auto _ : state) {
    std::vector<double> scores(n);
    for (std::size_t i = 0; i < n; ++i) scores[i] = core::h_score(hs[i], rho);
    benchmark::DoNotOptimize(core::order_descending(scores));
  }
}
BENCHMARK(BM_HScoreReordering)->Arg(1000);

static void BM_GpFitPredict(benchmark::State& state) {
  Rng rng(5);
  const std::size_t n = state.range(0);
  std::vector<std::vector<double>> xs(n);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform_vector(14, 0.0, 1.0);
    ys[i] = std::sin(xs[i][0] * 6.0) + 0.1 * rng.normal();
  }
  const std::vector<double> q = rng.uniform_vector(14, 0.0, 1.0);
  for (auto _ : state) {
    opt::GaussianProcess gp;
    gp.fit(xs, ys);
    benchmark::DoNotOptimize(gp.predict(q));
  }
}
BENCHMARK(BM_GpFitPredict)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
