// End-to-end GLOVA benchmark: whole optimizer sessions and a Monte Carlo
// sign-off sweep, driven only through public entry points (core::make_optimizer
// sessions and EvaluationEngine::evaluate_batch), with every layer timed from
// outside by spans around the calls into it.  Workloads, metrics and the
// layer -> end-to-end map are described in README.md beside this file.
//
//   glova_e2e --workload glova-behavioral|glova-spice|mc-signoff --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--seed-offset K]
//             [--short] [--commit SHA]
//
// mc-signoff reads its design points from designs.txt beside this file.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuits/registry.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "core/evaluation_engine.hpp"
#include "core/reward.hpp"
#include "core/run_spec.hpp"
#include "pdk/variation.hpp"
#include "spice/counters.hpp"
#include "spice/warm_start.hpp"

namespace {

using namespace glova;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ tracing --

/// One timed call into a layer.  `parent` is the id of the benchmark-side
/// span (optimizer step, engine batch) that was open when the call started.
struct Span {
  const char* name = "";
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// In-memory span store: one append-only buffer per thread, drained at
/// quiescent points (between passes, when no evaluation is in flight).
class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t parent() const { return parent_.load(std::memory_order_relaxed); }
  void set_parent(std::int64_t id) { parent_.store(id, std::memory_order_relaxed); }

  void record(const char* name, std::int64_t id, std::int64_t parent, std::int64_t start_ns,
              std::int64_t end_ns) {
    Buffer& buf = local();
    buf.spans.push_back(Span{name, id, parent, start_ns, end_ns, buf.thread});
  }

  /// All spans recorded since the last drain, every thread's buffer emptied.
  [[nodiscard]] std::vector<Span> drain() {
    std::vector<Span> out;
    std::lock_guard lock(mutex_);
    for (const auto& buf : buffers_) {
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
      buf->spans.clear();
    }
    return out;
  }

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };

  Buffer& local() {
    // One Tracer per process, so a plain thread_local pointer suffices.
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      auto owned = std::make_unique<Buffer>();
      std::lock_guard lock(mutex_);
      owned->thread = static_cast<std::uint32_t>(buffers_.size());
      buffer = owned.get();
      buffers_.push_back(std::move(owned));
    }
    return *buffer;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  std::atomic<std::int64_t> parent_{-1};
  std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

/// Testbench-layer counters, kept with tracing on or off.
struct TestbenchCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> draws{0};
  std::atomic<std::uint64_t> failures{0};

  void reset() {
    calls = 0;
    draws = 0;
    failures = 0;
  }
};

TestbenchCounters& tb_counters() {
  static TestbenchCounters instance;
  return instance;
}

/// Decorator that forwards every call to the wrapped testbench, counts calls,
/// draws and failures (EvaluationErrors and failed lanes), and with tracing
/// on records one span per call.
class TracedTestbench final : public circuits::Testbench {
 public:
  explicit TracedTestbench(circuits::TestbenchPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] const circuits::SizingSpec& sizing() const override { return inner_->sizing(); }
  [[nodiscard]] const circuits::PerformanceSpec& performance() const override {
    return inner_->performance();
  }
  [[nodiscard]] pdk::MismatchLayout mismatch_layout(std::span<const double> x,
                                                    bool global_enabled) const override {
    return inner_->mismatch_layout(x, global_enabled);
  }

  [[nodiscard]] std::vector<double> evaluate(std::span<const double> x,
                                             const pdk::PvtCorner& corner,
                                             std::span<const double> h) const override {
    Scope scope("testbench.evaluate", 1);
    try {
      return inner_->evaluate(x, corner, h);
    } catch (const circuits::EvaluationError&) {
      tb_counters().failures.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }

  using circuits::Testbench::evaluate_draws;
  [[nodiscard]] std::vector<std::vector<double>> evaluate_draws(
      std::span<const double> x, const pdk::PvtCorner& corner,
      std::span<const std::vector<double>> hs,
      std::vector<circuits::EvaluationFailure>& failures) const override {
    Scope scope("testbench.evaluate_draws", hs.size());
    auto out = inner_->evaluate_draws(x, corner, hs, failures);
    const auto failed = std::count_if(failures.begin(), failures.end(),
                                      [](const auto& f) { return f.failed; });
    tb_counters().failures.fetch_add(static_cast<std::uint64_t>(failed),
                                     std::memory_order_relaxed);
    return out;
  }

  [[nodiscard]] bool supports_batched_draws() const override {
    return inner_->supports_batched_draws();
  }
  [[nodiscard]] const circuits::Testbench* degraded_fallback() const override {
    return inner_->degraded_fallback();
  }

 private:
  /// Counts one call of `draws` evaluations and, when tracing, spans it.
  class Scope {
   public:
    Scope(const char* name, std::size_t draws) : name_(name) {
      TestbenchCounters& c = tb_counters();
      c.calls.fetch_add(1, std::memory_order_relaxed);
      c.draws.fetch_add(draws, std::memory_order_relaxed);
      if (tracer().enabled()) {
        parent_ = tracer().parent();
        start_ = now_ns();
      }
    }
    ~Scope() {
      if (start_ >= 0) tracer().record(name_, -1, parent_, start_, now_ns());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const char* name_;
    std::int64_t parent_ = -1;
    std::int64_t start_ = -1;
  };

  circuits::TestbenchPtr inner_;
};

// ---------------------------------------------------------------- workloads --

struct SessionJob {
  circuits::Testcase testcase = circuits::Testcase::Sal;
  circuits::Backend backend = circuits::Backend::Behavioral;
  core::VerifMethod method = core::VerifMethod::C;
  std::uint64_t seed = 1;
  std::size_t max_iterations = 3000;
};

struct SignoffJob {
  circuits::Testcase testcase = circuits::Testcase::Sal;
  std::uint64_t draw_seed = 1;
  std::vector<double> x_phys;
};

/// glova-behavioral: one Table II row (GLOVA, every testcase x method) with
/// one fixed seed per cell, chosen so that no single session dominates.
std::vector<SessionJob> behavioral_jobs(bool short_mode) {
  using circuits::Testcase;
  using core::VerifMethod;
  const std::vector<std::tuple<Testcase, VerifMethod, std::uint64_t>> cells = {
      {Testcase::Sal, VerifMethod::C, 1},      {Testcase::Sal, VerifMethod::C_MCL, 1},
      {Testcase::Sal, VerifMethod::C_MCGL, 1}, {Testcase::Fia, VerifMethod::C, 1},
      {Testcase::Fia, VerifMethod::C_MCL, 1},  {Testcase::Fia, VerifMethod::C_MCGL, 1},
      {Testcase::DramOcsa, VerifMethod::C, 1}, {Testcase::DramOcsa, VerifMethod::C_MCL, 2},
      {Testcase::DramOcsa, VerifMethod::C_MCGL, 3},
  };
  std::vector<SessionJob> jobs;
  for (const auto& [tc, method, seed] : cells) {
    jobs.push_back({tc, circuits::Backend::Behavioral, method, seed, 3000});
    if (short_mode && jobs.size() == 2) break;
  }
  return jobs;
}

/// glova-spice: GLOVA with the corners-only method on the SPICE backend, every
/// testcase, seed 1 and a fixed iteration cap.
std::vector<SessionJob> spice_jobs(bool short_mode) {
  std::vector<SessionJob> jobs;
  for (const auto tc : circuits::all_testcases()) {
    jobs.push_back({tc, circuits::Backend::Spice, core::VerifMethod::C, 1,
                    short_mode ? std::size_t{10} : std::size_t{120}});
  }
  return jobs;
}

/// mc-signoff: the stored design points, one line each:
///   <testcase> <draw-seed> <x_phys...>
std::vector<SignoffJob> signoff_jobs(const std::string& path, bool short_mode) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read design list '" + path + "'");
  std::vector<SignoffJob> jobs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tc_name;
    SignoffJob job;
    if (!(ls >> tc_name >> job.draw_seed)) throw std::runtime_error("bad design line: " + line);
    const auto tc = circuits::testcase_from_string(tc_name);
    if (!tc) throw std::runtime_error("unknown testcase in design line: " + line);
    job.testcase = *tc;
    for (double v = 0.0; ls >> v;) job.x_phys.push_back(v);
    jobs.push_back(std::move(job));
    if (short_mode) break;
  }
  if (jobs.empty()) throw std::runtime_error("design list '" + path + "' is empty");
  return jobs;
}

std::string job_label(const SessionJob& j) {
  return std::string(circuits::to_string(j.testcase)) + "/" + core::to_string(j.method) + "/s" +
         std::to_string(j.seed);
}

std::string job_label(const SignoffJob& j) {
  return std::string(circuits::to_string(j.testcase)) + "/signoff/d" +
         std::to_string(j.draw_seed);
}

/// Deterministic Fisher-Yates order of n jobs from the run seed (splitmix64,
/// so the order is the same on every standard library).
std::vector<std::size_t> job_order(std::size_t n, std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[next() % i]);
  return order;
}

// ------------------------------------------------------------------ results --

/// Outcome of one job (a session, or one design's sign-off sweep).
struct JobOutcome {
  std::size_t index = 0;      ///< position in the workload's job list
  std::string label;
  bool threw = false;
  std::string error;
  std::size_t trials = 0;     ///< sessions: 1; sign-off: draws
  std::size_t successes = 0;  ///< verified sessions / draws meeting every spec
  std::size_t iterations = 0; ///< RL iterations / evaluate_batch calls
  core::EngineStats stats;
  double wall_s = 0.0;         ///< measured around the job's steps / batches
  std::vector<double> piece_s; ///< each step() / evaluate_batch call, in order
  double reported_wall_s = 0.0;///< GlovaResult::wall_seconds (sessions)
  std::int64_t span_id = -1;   ///< id of the job's "session" / "signoff.job" span
  std::size_t steps = 0;
  std::size_t verify_attempts = 0;
  std::uint64_t turbo_evals = 0;
  bool verified_c = false;     ///< verified with the corners-only method
  circuits::Testcase testcase = circuits::Testcase::Sal;
  circuits::Backend backend = circuits::Backend::Behavioral;
  std::vector<double> x_phys;  ///< verified design (C-method sessions)
};

struct PassResult {
  bool traced = false;
  double wall_s = 0.0;         ///< sum of the job walls
  std::vector<JobOutcome> jobs;
  std::uint64_t tb_calls = 0;
  std::uint64_t tb_draws = 0;
  std::uint64_t tb_failures = 0;
  spice::SpiceCounters spice;  ///< delta over the pass
  spice::WarmStartStats warm;  ///< delta over the pass
  std::vector<Span> spans;     ///< traced passes only
};

spice::SpiceCounters counters_delta(const spice::SpiceCounters& a, const spice::SpiceCounters& b) {
  spice::SpiceCounters d;
  d.batch_groups = b.batch_groups - a.batch_groups;
  d.batch_lanes = b.batch_lanes - a.batch_lanes;
  d.bypass_solves = b.bypass_solves - a.bypass_solves;
  d.bypass_refactors = b.bypass_refactors - a.bypass_refactors;
  d.steps_accepted = b.steps_accepted - a.steps_accepted;
  d.steps_rejected = b.steps_rejected - a.steps_rejected;
  d.recovered_dc = b.recovered_dc - a.recovered_dc;
  d.recovered_transient = b.recovered_transient - a.recovered_transient;
  d.deadline_aborts = b.deadline_aborts - a.deadline_aborts;
  return d;
}

/// Empty every thread's SPICE DC warm-start cache (each pool worker's and
/// this thread's), so every pass starts as cold as a fresh process: without
/// it a later pass re-finds the operating points of the same designs.
void clear_warm_caches() {
  ThreadPool& pool = global_thread_pool();
  std::latch cleared(static_cast<std::ptrdiff_t>(pool.size()));
  std::vector<std::future<void>> done;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    done.push_back(pool.submit([&cleared] {
      spice::thread_local_dc_cache().clear();
      cleared.arrive_and_wait();  // hold this worker until every worker has cleared
    }));
  }
  for (auto& f : done) f.get();
  spice::thread_local_dc_cache().clear();
}

// ------------------------------------------------------------ session driver --

/// Marks the end of initialization (on_start) by closing the init span and
/// opening the first iteration's span, and notes which steps verified.
class StepProbe final : public core::RunObserver {
 public:
  explicit StepProbe(std::int64_t session_id) : session_id_(session_id) {}

  void begin_step() {
    span_id_ = tracer().next_id();
    span_start_ = now_ns();
    tracer().set_parent(span_id_);
    verified_step_ = false;
  }
  void end_step() {
    const std::int64_t end = now_ns();
    if (tracer().enabled()) {
      tracer().record(verified_step_ ? "optimizer.verify_step" : "optimizer.step", span_id_,
                      session_id_, span_start_, end);
    }
    ++steps_;
  }

  void on_start(core::Optimizer&) override {
    const std::int64_t t = now_ns();
    if (tracer().enabled()) tracer().record("optimizer.init", span_id_, session_id_, span_start_, t);
    span_id_ = tracer().next_id();
    span_start_ = t;
    tracer().set_parent(span_id_);
  }
  void on_iteration(core::Optimizer&, const core::IterationTrace& trace,
                    const core::EngineStats&) override {
    if (trace.attempted_verification) {
      verified_step_ = true;
      ++verify_attempts_;
    }
  }

  [[nodiscard]] std::size_t steps() const { return steps_; }
  [[nodiscard]] std::size_t verify_attempts() const { return verify_attempts_; }

 private:
  std::int64_t session_id_;
  std::int64_t span_id_ = -1;
  std::int64_t span_start_ = 0;
  bool verified_step_ = false;
  std::size_t steps_ = 0;
  std::size_t verify_attempts_ = 0;
};

core::RunSpec spec_of(const SessionJob& job, std::uint64_t seed_offset) {
  core::RunSpec spec;  // default knobs everywhere else
  spec.testcase = job.testcase;
  spec.backend = job.backend;
  spec.method = job.method;
  spec.seed = job.seed + seed_offset;
  spec.max_iterations = job.max_iterations;
  return spec;
}

/// Everything constructed before the first step: testbenches, the pool and
/// every session (the construction a Campaign would do up front).
std::vector<std::unique_ptr<core::Optimizer>> setup_sessions(const std::vector<SessionJob>& jobs,
                                                             std::uint64_t seed_offset) {
  (void)global_thread_pool();
  std::map<std::pair<int, int>, circuits::TestbenchPtr> benches;
  std::vector<std::unique_ptr<core::Optimizer>> sessions;
  for (const SessionJob& job : jobs) {
    auto& tb = benches[{static_cast<int>(job.testcase), static_cast<int>(job.backend)}];
    if (!tb) {
      tb = std::make_shared<TracedTestbench>(circuits::make_testbench(job.testcase, job.backend));
    }
    sessions.push_back(core::make_optimizer(spec_of(job, seed_offset), tb));
  }
  return sessions;
}

JobOutcome run_session(const SessionJob& job, core::Optimizer& opt) {
  JobOutcome out;
  out.label = job_label(job);
  out.testcase = job.testcase;
  out.backend = job.backend;
  out.trials = 1;
  const std::int64_t session_id = tracer().next_id();
  out.span_id = session_id;
  auto probe = std::make_shared<StepProbe>(session_id);
  opt.add_observer(probe);
  const std::int64_t t0 = now_ns();
  try {
    while (!opt.done()) {
      probe->begin_step();
      const std::int64_t s0 = now_ns();
      opt.step();
      out.piece_s.push_back(ns_to_s(now_ns() - s0));
      probe->end_step();
    }
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  const std::int64_t t1 = now_ns();
  tracer().set_parent(-1);
  if (tracer().enabled()) tracer().record("session", session_id, -1, t0, t1);
  out.wall_s = ns_to_s(t1 - t0);
  out.steps = probe->steps();
  out.verify_attempts = probe->verify_attempts();
  if (!out.threw) {
    const core::GlovaResult& r = opt.result();
    out.successes = r.success ? 1 : 0;
    out.iterations = r.rl_iterations;
    out.stats = r.engine_stats;
    out.reported_wall_s = r.wall_seconds;
    out.turbo_evals = r.turbo_evaluations;
    out.verified_c = r.success && job.method == core::VerifMethod::C;
    if (out.verified_c) out.x_phys = r.x_phys_final;
  } else if (const core::EvaluationEngine* eng = opt.engine()) {
    out.stats = eng->stats();
    out.iterations = opt.iterations_completed();
  }
  return out;
}

// ------------------------------------------------------------ sign-off driver --

/// One 32-draw chunk of a sign-off sweep: (corner, draws).
struct Chunk {
  pdk::PvtCorner corner;
  std::vector<std::vector<double>> hs;
};

constexpr std::size_t kChunk = 32;

/// Draws swept per corner, out of the Table I draws the verifier makes there
/// (C-MC_L 100, C-MC_G-L 1000): the same fixed 32% slice of each, so a pass
/// takes about a third of a full sign-off and several passes fit in one run.
std::size_t signoff_draws_per_corner(core::VerifMethod method) {
  return method == core::VerifMethod::C_MCL ? 32 : 320;
}

/// The Table I condition set for one design: C-MC_L (30 corners, local
/// draws) then C-MC_G-L (6 corners, global+local draws), drawn exactly as the
/// verifier draws them (100 / 1000 per corner), of which each corner's first
/// signoff_draws_per_corner() are swept, in 32-draw chunks.
std::vector<Chunk> signoff_chunks(const circuits::Testbench& tb, const SignoffJob& job,
                                  std::uint64_t seed_offset) {
  std::vector<Chunk> chunks;
  Rng rng(job.draw_seed + seed_offset);
  for (const core::VerifMethod method : {core::VerifMethod::C_MCL, core::VerifMethod::C_MCGL}) {
    const core::OperationalConfig cfg = core::OperationalConfig::for_method(method);
    const pdk::MismatchLayout layout = tb.mismatch_layout(job.x_phys, cfg.global_mismatch);
    for (const pdk::PvtCorner& corner : cfg.corners) {
      auto hs = pdk::sample_mismatch_set(layout, cfg.n_verif, rng,
                                         cfg.verification_sampling_mode());
      hs.resize(std::min(hs.size(), signoff_draws_per_corner(method)));
      for (std::size_t b = 0; b < hs.size(); b += kChunk) {
        const std::size_t e = std::min(hs.size(), b + kChunk);
        chunks.push_back({corner, {std::make_move_iterator(hs.begin() + static_cast<long>(b)),
                                   std::make_move_iterator(hs.begin() + static_cast<long>(e))}});
      }
    }
  }
  return chunks;
}

/// Everything constructed before the first evaluation: testbenches, the pool
/// and one fresh engine per design.
std::vector<std::unique_ptr<core::EvaluationEngine>> setup_signoff(
    const std::vector<SignoffJob>& jobs) {
  (void)global_thread_pool();
  std::map<int, circuits::TestbenchPtr> benches;
  std::vector<std::unique_ptr<core::EvaluationEngine>> engines;
  for (const SignoffJob& job : jobs) {
    auto& tb = benches[static_cast<int>(job.testcase)];
    if (!tb) {
      tb = std::make_shared<TracedTestbench>(
          circuits::make_testbench(job.testcase, circuits::Backend::Spice));
    }
    engines.push_back(std::make_unique<core::EvaluationEngine>(tb));  // default config
  }
  return engines;
}

JobOutcome run_signoff(const SignoffJob& job, const std::vector<Chunk>& chunks,
                       core::EvaluationEngine& engine) {
  JobOutcome out;
  out.label = job_label(job);
  out.testcase = job.testcase;
  out.backend = circuits::Backend::Spice;
  const circuits::PerformanceSpec& spec = engine.testbench().performance();
  const std::int64_t job_id = tracer().next_id();
  out.span_id = job_id;
  const std::int64_t t0 = now_ns();
  try {
    for (const Chunk& chunk : chunks) {
      const std::int64_t id = tracer().next_id();
      tracer().set_parent(id);
      const std::int64_t b0 = now_ns();
      const auto metrics = engine.evaluate_batch(job.x_phys, chunk.corner, chunk.hs);
      const std::int64_t b1 = now_ns();
      out.piece_s.push_back(ns_to_s(b1 - b0));
      if (tracer().enabled()) tracer().record("engine.evaluate_batch", id, job_id, b0, b1);
      if (metrics.size() != chunk.hs.size()) throw std::runtime_error("batch size mismatch");
      for (const auto& m : metrics) {
        if (m.size() != spec.count()) throw std::runtime_error("metric count mismatch");
        out.successes += core::all_constraints_met(spec, m) ? 1 : 0;
      }
      out.trials += metrics.size();
      ++out.iterations;
    }
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  const std::int64_t t1 = now_ns();
  tracer().set_parent(-1);
  if (tracer().enabled()) tracer().record("signoff.job", job_id, -1, t0, t1);
  out.wall_s = ns_to_s(t1 - t0);
  out.stats = engine.stats();
  return out;
}

// ------------------------------------------------------------------ analysis --

/// Length of the union of `iv` clipped to [a, b].
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv, std::int64_t a,
                        std::int64_t b) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = -1;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, a);
    hi = std::min(hi, b);
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

bool is_testbench(const Span& s) { return std::string_view(s.name).starts_with("testbench."); }

bool is_job(const Span& s) {
  const std::string_view name(s.name);
  return name == "session" || name == "signoff.job";
}

/// Per-layer figures of one traced pass, derived from its spans.
struct LayerFigures {
  double init_self_s_p50 = 0.0;
  double step_self_ms_p50 = 0.0;
  double verify_step_self_ms_p50 = 0.0;
  double batch_self_s = 0.0;
  double tb_busy_s = 0.0;
  double tb_share = 0.0;     ///< testbench time inside the jobs / job wall
  double worker_util = 0.0;  ///< testbench busy / (batch or job wall x pool)
  double tb_eval_ms_p50 = 0.0;
  double tb_eval_ms_p99 = 0.0;
  double layer_sum_error_max = 0.0;
  std::size_t tb_spans = 0;
  std::size_t misparented = 0;  ///< testbench spans not inside their open step/batch span
};

LayerFigures analyse(const PassResult& pass, std::size_t pool_size) {
  LayerFigures f;
  std::unordered_map<std::int64_t, const Span*> callers;  // id -> non-testbench span
  for (const Span& s : pass.spans) {
    if (!is_testbench(s)) callers[s.id] = &s;
  }
  std::unordered_map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  std::vector<std::pair<std::int64_t, std::int64_t>> tb_all;
  std::vector<double> tb_ms;
  for (const Span& s : pass.spans) {
    if (!is_testbench(s)) continue;
    ++f.tb_spans;
    const auto p = callers.find(s.parent);
    if (p == callers.end() || is_job(*p->second) || s.start_ns < p->second->start_ns ||
        s.end_ns > p->second->end_ns) {
      ++f.misparented;
    }
    children[s.parent].emplace_back(s.start_ns, s.end_ns);
    tb_all.emplace_back(s.start_ns, s.end_ns);
    tb_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    f.tb_busy_s += ns_to_s(s.end_ns - s.start_ns);
  }
  f.tb_eval_ms_p50 = percentile(tb_ms, 0.50);
  f.tb_eval_ms_p99 = percentile(tb_ms, 0.99);

  std::vector<double> init_self;
  std::vector<double> step_self;
  std::vector<double> verify_self;
  std::unordered_map<std::int64_t, double> job_self;  // job span id -> optimizer self time
  double batch_wall = 0.0;
  for (const Span& s : pass.spans) {
    if (is_testbench(s) || is_job(s)) continue;
    auto it = children.find(s.id);
    const std::int64_t cov =
        it == children.end() ? 0 : covered_ns(it->second, s.start_ns, s.end_ns);
    const double self = ns_to_s(s.end_ns - s.start_ns - cov);
    const std::string_view name(s.name);
    if (name == "optimizer.init") init_self.push_back(self);
    if (name == "optimizer.step") step_self.push_back(self * 1e3);
    if (name == "optimizer.verify_step") verify_self.push_back(self * 1e3);
    if (name == "engine.evaluate_batch") {
      f.batch_self_s += self;
      batch_wall += ns_to_s(s.end_ns - s.start_ns);
    } else {
      job_self[s.parent] += self;
    }
  }
  f.init_self_s_p50 = median(init_self);
  f.step_self_ms_p50 = median(step_self);
  f.verify_step_self_ms_p50 = median(verify_self);

  // The testbench time inside a job comes from every testbench span in the
  // job's interval, without parent links: a span that lost its parent raises
  // the optimizer self time above but leaves this figure, so the layer sum
  // (self + testbench against the session's own wall time) shows it.
  double tb_in_jobs = 0.0;
  double job_wall = 0.0;
  for (const JobOutcome& j : pass.jobs) {
    const auto it = callers.find(j.span_id);
    if (it == callers.end()) continue;
    const Span& s = *it->second;
    const double tb = ns_to_s(covered_ns(tb_all, s.start_ns, s.end_ns));
    tb_in_jobs += tb;
    job_wall += ns_to_s(s.end_ns - s.start_ns);
    if (j.reported_wall_s > 0.0) {
      const double sum = job_self[j.span_id] + tb;
      f.layer_sum_error_max =
          std::max(f.layer_sum_error_max, std::abs(sum - j.reported_wall_s) / j.reported_wall_s);
    }
  }
  f.tb_share = ratio(tb_in_jobs, job_wall);
  f.worker_util = ratio(f.tb_busy_s,
                        (batch_wall > 0.0 ? batch_wall : job_wall) * static_cast<double>(pool_size));
  return f;
}

/// Every testbench call of a traced pass left a span, under the step or
/// batch span that was open for its whole length.
bool check_spans(const PassResult& pass, const LayerFigures& f) {
  bool ok = true;
  if (f.tb_spans != pass.tb_calls) {
    std::printf("check: %zu testbench spans for %llu testbench calls\n", f.tb_spans,
                static_cast<unsigned long long>(pass.tb_calls));
    ok = false;
  }
  if (f.misparented > 0) {
    std::printf("check: %zu testbench spans outside an open step or batch span\n",
                f.misparented);
    ok = false;
  }
  return ok;
}

// ------------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 9e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_cpu_field(const char* field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) break;
      std::string v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "unknown";
}

/// Machine and build context, printed beside every result and written into
/// the span file: only same-machine pairs compare.
std::string context_json(const std::string& workload, std::uint64_t seed, const std::string& commit) {
  std::ostringstream os;
  os << "{\"workload\": \"" << json_escape(workload) << "\", \"seed\": " << seed
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"pool_threads\": " << global_thread_pool().size() << ", \"cpu_model\": \""
     << json_escape(read_cpu_field("model name")) << "\", \"cpu_mhz\": \""
     << json_escape(read_cpu_field("cpu MHz")) << "\", \"compiler\": \"" << GLOVA_E2E_COMPILER
     << "\", \"build_type\": \"" << GLOVA_E2E_BUILD_TYPE
     << "\", \"GLOVA_SPICE_NATIVE_KERNELS\": \"" << GLOVA_E2E_NATIVE_KERNELS
     << "\", \"commit\": \"" << json_escape(commit) << "\"}";
  return os.str();
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::string& context) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "glova_e2e: cannot write span file '%s'\n", path.c_str());
    return;
  }
  // Chrome trace-event format (chrome://tracing, Perfetto).
  out << "{\"otherData\": " << context << ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld}}%s\n",
                  s.name, s.thread, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t seed_offset = 0;
  bool short_mode = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "glova_e2e: %s\nusage: glova_e2e --workload glova-behavioral|glova-spice|mc-signoff "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--seed-offset K] [--short] [--commit SHA]\n",
               msg);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--seed-offset") o.seed_offset = std::stoull(value());
    else if (a == "--short") o.short_mode = true;
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--commit") o.commit = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload != "glova-behavioral" && o.workload != "glova-spice" &&
      o.workload != "mc-signoff") {
    usage("unknown or missing --workload");
  }
  return o;
}

/// Runs one workload's passes; separates the workload-specific setup/job code
/// from the shared pass loop, metrics and checks below.
class Workload {
 public:
  explicit Workload(const Options& o) : o_(o) {
    if (o.workload == "mc-signoff") {
      signoff_jobs_ = signoff_jobs(GLOVA_E2E_SOURCE_DIR "/designs.txt", o.short_mode);
      // Inputs: every chunk of every design, drawn once per run.
      for (const SignoffJob& job : signoff_jobs_) {
        const auto tb = circuits::make_testbench(job.testcase, circuits::Backend::Spice);
        if (job.x_phys.size() != tb->sizing().dimension()) {
          throw std::runtime_error("design " + job_label(job) + " has the wrong dimension");
        }
        chunks_.push_back(signoff_chunks(*tb, job, o.seed_offset));
      }
    } else {
      session_jobs_ = o.workload == "glova-spice" ? spice_jobs(o.short_mode)
                                              : behavioral_jobs(o.short_mode);
    }
    order_ = job_order(job_count(), o.seed);
  }

  [[nodiscard]] std::size_t job_count() const {
    return signoff_jobs_.empty() ? session_jobs_.size() : signoff_jobs_.size();
  }

  /// Set-ups per sample: one set-up takes microseconds.
  static constexpr int kSetupBurst = 100;

  /// Construct (and discard) everything a pass needs before its first step,
  /// `reps` times in a row; returns the mean seconds of one set-up.
  [[nodiscard]] double time_setup(int reps) const {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < reps; ++i) {
      if (signoff_jobs_.empty()) {
        (void)setup_sessions(session_jobs_, o_.seed_offset);
      } else {
        (void)setup_signoff(signoff_jobs_);
      }
    }
    return ns_to_s(now_ns() - t0) / reps;
  }

  /// One pass: set up, then every job in the run's order.  Before each job a
  /// burst of discarded set-ups samples set-up time (appended to `setups`),
  /// so the samples spread over the whole run; job walls exclude them.
  [[nodiscard]] PassResult run_pass(bool traced, std::vector<double>& setups) const {
    PassResult pass;
    pass.traced = traced;
    clear_warm_caches();
    (void)tracer().drain();
    tracer().set_enabled(traced);
    tb_counters().reset();
    // Process-wide SPICE counters, read as deltas over the pass: one engine
    // is active at a time, so the pass owns every count.  (EngineStats'
    // dc_warm_* deltas start at engine construction, and sign-off engines
    // are all constructed before the first job.)
    const spice::SpiceCounters c0 = spice::spice_counters();
    const spice::WarmStartStats w0 = spice::warm_start_stats();

    if (signoff_jobs_.empty()) {
      const auto sessions = setup_sessions(session_jobs_, o_.seed_offset);
      for (const std::size_t i : order_) {
        setups.push_back(time_setup(kSetupBurst));
        pass.jobs.push_back(run_session(session_jobs_[i], *sessions[i]));
        pass.jobs.back().index = i;
      }
    } else {
      const auto engines = setup_signoff(signoff_jobs_);
      for (const std::size_t i : order_) {
        setups.push_back(time_setup(kSetupBurst));
        pass.jobs.push_back(run_signoff(signoff_jobs_[i], chunks_[i], *engines[i]));
        pass.jobs.back().index = i;
      }
    }
    for (const JobOutcome& j : pass.jobs) pass.wall_s += j.wall_s;

    tracer().set_enabled(false);
    pass.spice = counters_delta(c0, spice::spice_counters());
    const spice::WarmStartStats w1 = spice::warm_start_stats();
    pass.warm = {w1.hits - w0.hits, w1.misses - w0.misses, w1.stores - w0.stores};
    pass.tb_calls = tb_counters().calls;
    pass.tb_draws = tb_counters().draws;
    pass.tb_failures = tb_counters().failures;
    pass.spans = tracer().drain();
    return pass;
  }

  /// Output check: every design a corners-only session verified is
  /// re-simulated at each corner of its method through a fresh engine (on
  /// the plain registry testbench) and must meet every spec.
  [[nodiscard]] bool recheck_verified(const PassResult& pass, std::size_t& checked) const {
    bool ok = true;
    for (const JobOutcome& job : pass.jobs) {
      if (!job.verified_c) continue;
      ++checked;
      core::EvaluationEngine engine(circuits::make_testbench(job.testcase, job.backend));
      const auto cfg = core::OperationalConfig::for_method(core::VerifMethod::C);
      const circuits::PerformanceSpec& spec = engine.testbench().performance();
      for (const pdk::PvtCorner& corner : cfg.corners) {
        const auto m = engine.evaluate_one(job.x_phys, corner, {});
        if (!core::all_constraints_met(spec, m)) {
          std::printf("check: %s verified design fails a spec on re-simulation\n",
                      job.label.c_str());
          ok = false;
          break;
        }
      }
    }
    return ok;
  }

 private:
  const Options& o_;
  std::vector<SessionJob> session_jobs_;
  std::vector<SignoffJob> signoff_jobs_;
  std::vector<std::vector<Chunk>> chunks_;
  std::vector<std::size_t> order_;
};

/// Checks that hold within one pass.  Failures are printed and make the run
/// incorrect; nothing is dropped from the averages.
bool check_pass(const PassResult& pass) {
  bool ok = true;
  std::uint64_t executed = 0;
  std::uint64_t retries = 0;
  for (const JobOutcome& j : pass.jobs) {
    if (j.threw) {
      std::printf("check: %s failed: %s\n", j.label.c_str(), j.error.c_str());
      ok = false;
    }
    const core::EngineStats& s = j.stats;
    if (s.requested != s.cache_hits + s.executed + s.surrogate_prunes) {
      std::printf("check: %s funnel broken: requested %llu != hits %llu + executed %llu + "
                  "prunes %llu\n",
                  j.label.c_str(), static_cast<unsigned long long>(s.requested),
                  static_cast<unsigned long long>(s.cache_hits),
                  static_cast<unsigned long long>(s.executed),
                  static_cast<unsigned long long>(s.surrogate_prunes));
      ok = false;
    }
    executed += s.executed;
    retries += s.retries;
  }
  // Every executed simulation (and retry) reached the testbench exactly once.
  if (pass.tb_draws != executed + retries) {
    std::printf("check: testbench saw %llu draws, engines executed %llu (+%llu retries)\n",
                static_cast<unsigned long long>(pass.tb_draws),
                static_cast<unsigned long long>(executed), static_cast<unsigned long long>(retries));
    ok = false;
  }
  return ok;
}

/// Fixed-seed determinism: the counts of every job repeat exactly across the
/// passes of one run.  The one allowance: a sign-off draw within solver
/// tolerance of a spec bound may flip, because a DC warm-start seed depends
/// on which worker ran which draw before; at most 0.1% of a sweep's draws.
bool same_counts(const PassResult& a, const PassResult& b) {
  bool ok = true;
  for (std::size_t i = 0; i < a.jobs.size() && i < b.jobs.size(); ++i) {
    const JobOutcome& x = a.jobs[i];
    const JobOutcome& y = b.jobs[i];
    const std::size_t flips = x.successes > y.successes ? x.successes - y.successes
                                                        : y.successes - x.successes;
    const std::size_t allowed = x.trials > 1 ? x.trials / 1000 : 0;
    if (flips > allowed || x.trials != y.trials || x.iterations != y.iterations ||
        x.stats.requested != y.stats.requested) {
      std::printf("check: %s differs between passes (success %zu/%zu, iterations %zu/%zu, "
                  "sims %llu/%llu)\n",
                  x.label.c_str(), x.successes, y.successes, x.iterations, y.iterations,
                  static_cast<unsigned long long>(x.stats.requested),
                  static_cast<unsigned long long>(y.stats.requested));
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  const Options o = parse_args(argc, argv);
  try {
    const std::string context = context_json(o.workload, o.seed, o.commit);
    std::printf("context %s\n", context.c_str());
    const Workload workload(o);

    // Set-up time: bursts of set-ups, five here (the first also pays the
    // process-level lazy set-up: pool threads, first touch) and one before
    // every job, so the samples spread over the run; the median is reported.
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) setups.push_back(workload.time_setup(Workload::kSetupBurst));

    // Whole passes while the next one still fits in --seconds; at least one
    // pass, and with --trace 1 at least one untraced and one traced pass
    // (alternating), so the tracing overhead is a same-run difference.
    std::vector<PassResult> passes;
    const std::int64_t t_run = now_ns();
    const std::size_t min_passes = o.trace ? 2 : 1;
    while (true) {
      const bool traced = o.trace && passes.size() % 2 == 1;
      passes.push_back(workload.run_pass(traced, setups));
      const PassResult& p = passes.back();
      std::printf("pass %zu%s: wall %.3f s, %zu jobs\n", passes.size(), traced ? " (traced)" : "",
                  p.wall_s, p.jobs.size());
      const double elapsed = ns_to_s(now_ns() - t_run);
      if (passes.size() >= min_passes && elapsed + p.wall_s > o.seconds) break;
    }
    for (const JobOutcome& j : passes.front().jobs) {
      std::printf("  %-22s %-6s it %-5zu sims %-7llu exec %-7llu wall %.3f s\n", j.label.c_str(),
                  j.threw ? "THREW" : (j.trials == 1 ? (j.successes ? "ok" : "capped") : "swept"),
                  j.iterations, static_cast<unsigned long long>(j.stats.requested),
                  static_cast<unsigned long long>(j.stats.executed), j.wall_s);
    }

    // ---- checks
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<LayerFigures> figs;  // one per traced pass
    for (const PassResult& p : passes) {
      correct = check_pass(p) && correct;
      correct = same_counts(passes.front(), p) && correct;
      if (p.traced) {
        figs.push_back(analyse(p, global_thread_pool().size()));
        correct = check_spans(p, figs.back()) && correct;
      }
      attempted += p.jobs.size();
      for (const JobOutcome& j : p.jobs) failed += j.threw ? 1 : 0;
    }
    std::size_t rechecked = 0;
    correct = workload.recheck_verified(passes.front(), rechecked) && correct;
    std::printf("checks: %s (%zu passes, %zu verified C designs re-simulated)\n",
                correct ? "ok" : "FAILED", passes.size(), rechecked);

    // ---- metrics
    std::vector<Metric> metrics;
    const PassResult& first = passes.front();
    std::size_t trials = 0;
    std::size_t successes = 0;
    double iters = 0.0;
    double sims = 0.0;
    for (const JobOutcome& j : first.jobs) {
      trials += j.trials;
      successes += j.successes;
      iters += static_cast<double>(j.iterations);
      sims += static_cast<double>(j.stats.requested);
    }
    const auto n_jobs = static_cast<double>(first.jobs.size());
    const auto executed_of = [](const PassResult& p) {
      double e = 0.0;
      for (const JobOutcome& j : p.jobs) e += static_cast<double>(j.stats.executed);
      return e;
    };

    if (!o.trace) {
      // A job's time is the sum of its pieces (steps, or batches of a sweep),
      // each at its best (minimum) over the run's passes: the work of a piece
      // is the same in every pass, and a neighbour on a shared host only ever
      // adds time, in bursts shorter than a pass.  wall_s sums the jobs; p50
      // and max are taken over them.
      std::vector<double> ok_rate;
      std::vector<std::vector<double>> best(first.jobs.size());
      for (const PassResult& p : passes) {
        for (const JobOutcome& j : p.jobs) {
          std::vector<double>& b = best[j.index];
          b.resize(std::max(b.size(), j.piece_s.size()), std::numeric_limits<double>::infinity());
          for (std::size_t k = 0; k < j.piece_s.size(); ++k) b[k] = std::min(b[k], j.piece_s[k]);
        }
        ok_rate.push_back(1.0 - ratio(static_cast<double>(p.tb_failures),
                                      static_cast<double>(p.tb_draws)));
      }
      std::vector<double> job_s;
      for (const auto& b : best) job_s.push_back(std::accumulate(b.begin(), b.end(), 0.0));
      const double wall = std::accumulate(job_s.begin(), job_s.end(), 0.0);
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      metrics = {
          {"wall_s", wall, "s"},
          {"setup_s", median(setups), "s"},
          {"job_s_p50", median(job_s), "s"},
          {"job_s_max", *std::max_element(job_s.begin(), job_s.end()), "s"},
          {"success_rate", ratio(static_cast<double>(successes), static_cast<double>(trials)),
           "ratio"},
          {"eval_ok_rate", median(ok_rate), "ratio"},
          {"iters_per_session", iters / n_jobs, "count"},
          {"sims_per_session", sims / n_jobs, "count"},
          {"sims_per_s", ratio(executed_of(first), wall), "1/s"},
          {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      };
    } else {
      std::vector<double> untraced_wall;
      std::vector<double> traced_wall;
      const PassResult* traced = nullptr;
      for (const PassResult& p : passes) {
        (p.traced ? traced_wall : untraced_wall).push_back(p.wall_s);
        if (p.traced) traced = &p;
      }
      const auto med = [&](auto field) {
        std::vector<double> v;
        for (const LayerFigures& f : figs) v.push_back(f.*field);
        return median(v);
      };
      const PassResult& tp = *traced;
      std::uint64_t steps = 0;
      std::uint64_t verify_attempts = 0;
      std::uint64_t verified = 0;
      std::uint64_t turbo = 0;
      core::EngineStats total;
      for (const JobOutcome& j : tp.jobs) {
        steps += j.steps;
        verify_attempts += j.verify_attempts;
        verified += j.trials == 1 ? j.successes : 0;
        turbo += j.turbo_evals;
        total.requested += j.stats.requested;
        total.executed += j.stats.executed;
        total.cache_hits += j.stats.cache_hits;
        total.retries += j.stats.retries;
        total.degraded_evals += j.stats.degraded_evals;
      }
      // Best pass of each kind, as for the end-to-end times.
      const double u = *std::min_element(untraced_wall.begin(), untraced_wall.end());
      const double t = *std::min_element(traced_wall.begin(), traced_wall.end());
      const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
      metrics = {
          {"optimizer.init_self_s", med(&LayerFigures::init_self_s_p50), "s"},
          {"optimizer.step_self_ms_p50", med(&LayerFigures::step_self_ms_p50), "ms"},
          {"optimizer.verify_step_self_ms_p50", med(&LayerFigures::verify_step_self_ms_p50), "ms"},
          {"optimizer.steps", d(steps), "count"},
          {"optimizer.verify_attempts", d(verify_attempts), "count"},
          {"optimizer.verify_pass_ratio", ratio(d(verified), d(verify_attempts)), "ratio"},
          {"optimizer.turbo_evals", d(turbo), "count"},
          {"engine.requested", d(total.requested), "count"},
          {"engine.executed", d(total.executed), "count"},
          {"engine.cache_hits", d(total.cache_hits), "count"},
          {"engine.cache_hit_ratio", ratio(d(total.cache_hits), d(total.requested)), "ratio"},
          {"engine.retries", d(total.retries), "count"},
          {"engine.degraded_evals", d(total.degraded_evals), "count"},
          {"engine.batch_self_s", med(&LayerFigures::batch_self_s), "s"},
          {"engine.worker_util", med(&LayerFigures::worker_util), "ratio"},
          {"testbench.calls", d(tp.tb_calls), "count"},
          {"testbench.draws", d(tp.tb_draws), "count"},
          {"testbench.busy_s", med(&LayerFigures::tb_busy_s), "s"},
          {"testbench.share", med(&LayerFigures::tb_share), "ratio"},
          {"testbench.eval_ms_p50", med(&LayerFigures::tb_eval_ms_p50), "ms"},
          {"testbench.eval_ms_p99", med(&LayerFigures::tb_eval_ms_p99), "ms"},
          {"testbench.failures", d(tp.tb_failures), "count"},
          {"spice.dc_warm_hits", d(tp.warm.hits), "count"},
          {"spice.dc_warm_misses", d(tp.warm.misses), "count"},
          {"spice.dc_warm_hit_ratio",
           ratio(d(tp.warm.hits), d(tp.warm.hits + tp.warm.misses)), "ratio"},
          {"spice.steps_accepted", d(tp.spice.steps_accepted), "count"},
          {"spice.steps_rejected", d(tp.spice.steps_rejected), "count"},
          {"spice.recovered_dc", d(tp.spice.recovered_dc), "count"},
          {"spice.recovered_transient", d(tp.spice.recovered_transient), "count"},
          {"spice.deadline_aborts", d(tp.spice.deadline_aborts), "count"},
          {"trace.untraced_wall_s", u, "s"},
          {"trace.traced_wall_s", t, "s"},
          {"trace.overhead_s", t - u, "s"},
          {"trace.overhead_ratio", ratio(t - u, u), "ratio"},
          {"trace.spans", d(tp.spans.size()), "count"},
          {"layers.sum_error_max", med(&LayerFigures::layer_sum_error_max), "ratio"},
      };
      if (!o.trace_out.empty()) write_spans(o.trace_out, tp.spans, context);
    }

    for (const Metric& m : metrics) {
      std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      js << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << format_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "glova_e2e: %s\n", e.what());
    return 1;
  }
}
