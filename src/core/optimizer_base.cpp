#include "core/optimizer_base.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "common/state_io.hpp"
#include "common/text.hpp"
#include "core/reward.hpp"
#include "opt/turbo.hpp"
#include "pdk/variation.hpp"

namespace glova::core {

// ---------------------------------------------------------------------------
// GlovaResult text codec, shared by campaign checkpoints and optimizer state.

void write_glova_result(std::ostream& os, const GlovaResult& r) {
  os << "result " << (r.success ? 1 : 0) << ' ' << r.rl_iterations << ' ' << r.n_simulations
     << ' ' << r.n_simulations_executed << ' ' << r.n_cache_hits << ' ' << r.turbo_evaluations
     << ' ' << format_double_roundtrip(r.wall_seconds) << ' '
     << format_double_roundtrip(r.modeled_runtime) << '\n';
  os << "stats " << r.engine_stats.requested << ' ' << r.engine_stats.executed << ' '
     << r.engine_stats.cache_hits << ' ' << r.engine_stats.dc_warm_hits << ' '
     << r.engine_stats.dc_warm_misses << ' ' << r.engine_stats.dc_warm_stores << '\n';
  os << "termination " << state::one_line(r.termination) << '\n';
  state::write_doubles(os, "x01", r.x01_final);
  state::write_doubles(os, "xphys", r.x_phys_final);
  os << "trace " << r.trace.size() << '\n';
  for (const IterationTrace& t : r.trace) {
    os << "t " << t.iteration << ' ' << format_double_roundtrip(t.reward_worst) << ' '
       << format_double_roundtrip(t.critic_mean) << ' '
       << format_double_roundtrip(t.critic_bound) << ' ' << (t.mu_sigma_pass ? 1 : 0) << ' '
       << (t.attempted_verification ? 1 : 0) << ' ' << t.sims_total << '\n';
  }
}

GlovaResult read_glova_result(std::istream& is) {
  GlovaResult r;
  {
    std::istringstream line(state::expect_line(is, "result"));
    constexpr std::string_view what = "'result' line";
    int success = 0;
    if (!(line >> success)) state::bad("malformed 'result' line");
    r.success = success != 0;
    r.rl_iterations = state::next_u64(line, what);
    r.n_simulations = state::next_u64(line, what);
    r.n_simulations_executed = state::next_u64(line, what);
    r.n_cache_hits = state::next_u64(line, what);
    r.turbo_evaluations = state::next_u64(line, what);
    if (!(line >> r.wall_seconds >> r.modeled_runtime)) state::bad("malformed 'result' line");
  }
  {
    std::istringstream line(state::expect_line(is, "stats"));
    EngineStats& s = r.engine_stats;
    for (std::uint64_t* field : {&s.requested, &s.executed, &s.cache_hits, &s.dc_warm_hits,
                                 &s.dc_warm_misses, &s.dc_warm_stores}) {
      *field = state::next_u64(line, "'stats' line");
    }
  }
  r.termination = state::expect_line(is, "termination");
  r.x01_final = state::read_doubles(is, "x01");
  r.x_phys_final = state::read_doubles(is, "xphys");
  const std::size_t trace_count =
      state::parse_u64(state::expect_line(is, "trace"), "trace count");
  if (trace_count > state::kMaxCount) {
    state::bad("implausible trace count " + std::to_string(trace_count));
  }
  r.trace.reserve(trace_count);
  for (std::size_t i = 0; i < trace_count; ++i) {
    std::istringstream line(state::expect_line(is, "t"));
    IterationTrace t;
    t.iteration = state::next_u64(line, "trace row");
    int mu = 0;
    int att = 0;
    if (!(line >> t.reward_worst >> t.critic_mean >> t.critic_bound >> mu >> att)) {
      state::bad("malformed trace row");
    }
    t.sims_total = state::next_u64(line, "trace row");
    t.mu_sigma_pass = mu != 0;
    t.attempted_verification = att != 0;
    r.trace.push_back(t);
  }
  return r;
}

const char* RunBudget::exceeded_by(std::uint64_t simulations, std::size_t iterations,
                                   double wall_seconds) const {
  if (max_simulations != 0 && simulations >= max_simulations) return "simulation-budget";
  if (max_iterations != 0 && iterations >= max_iterations) return "iteration-budget";
  if (max_wall_seconds > 0.0 && wall_seconds >= max_wall_seconds) return "wall-clock-budget";
  return nullptr;
}

namespace {

rl::AgentConfig make_agent_config(const SessionConfig& config, std::size_t ensemble_size,
                                  double beta1) {
  rl::AgentConfig agent;
  agent.critic.ensemble_size = ensemble_size;
  agent.critic.beta1 = beta1;
  agent.critic.hidden = config.hidden;
  agent.hidden = config.hidden;
  agent.batch_size = config.batch_size;
  return agent;
}

}  // namespace

// The child streams are split off the root seed, not its position, so the
// agent and the mismatch stream can be built before any policy draws.
Optimizer::Session::Session(const circuits::TestbenchPtr& testbench, const SessionConfig& config,
                            const OperationalConfig& op_config,
                            const rl::AgentConfig& agent_config,
                            const VerifierOptions& verifier_options)
    : engine(testbench, config.engine),
      rng(config.seed),
      mc_rng(rng.split(0x3C3C)),
      last_worst(op_config.corner_count()),
      agent(testbench->sizing().dimension(), agent_config, rng.split(0xA6E7)),
      verifier(engine, op_config, verifier_options) {}

Optimizer::Optimizer(circuits::TestbenchPtr testbench, const SessionConfig& config,
                     std::size_t ensemble_size, double beta1, VerifierOptions verifier)
    : testbench_(std::move(testbench)),
      op_config_(OperationalConfig::for_method(config.method, config.n_opt_samples,
                                               config.corner_filter)),
      session_config_(config),
      agent_config_(make_agent_config(config, ensemble_size, beta1)),
      verifier_options_(verifier) {}

double Optimizer::elapsed_seconds() const {
  if (!started_) return 0.0;
  return wall_offset_ +
         std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

// The frame is the same for every algorithm; the session block after the
// result opens with the iteration count under the algorithm's lowercased
// name (`glova 3`), the bytes that checkpoints and spools already hold.
void Optimizer::save_state(std::ostream& os) const {
  if (!started_ || finished_) {
    throw std::logic_error(
        "Optimizer::save_state: only a live (started, unfinished) session can be serialized; "
        "a fresh session is captured by its spec, a terminal one by its result");
  }
  const Session& s = *s_;
  os << "optimizer-state v2 " << algorithm_name() << '\n';
  write_glova_result(os, result_);
  os << to_lower(algorithm_name()) << ' ' << s.iter << '\n';
  os << "rng " << s.rng.save() << '\n';
  os << "mc_rng " << s.mc_rng.save() << '\n';
  state::write_doubles(os, "x_last", s.x_last);
  save_policy_state(os);
  s.buffer.save(os);
  s.last_worst.save(os);
  s.agent.save(os);
  s.engine.save_state(os);
  os << "optimizer-state-end\n";
  if (!os) state::bad("optimizer state write failed");
}

void Optimizer::load_state(std::istream& is) {
  if (started_ || finished_) {
    throw std::logic_error("Optimizer::load_state: requires a fresh session (no step() yet)");
  }
  std::istringstream header(state::expect_line(is, "optimizer-state"));
  std::string version;
  std::string name;
  header >> version >> name;
  if (version != "v2") {
    state::bad("unsupported optimizer-state version '" + version + "' (this build reads v2)");
  }
  if (name != algorithm_name()) {
    state::bad("optimizer-state algorithm mismatch: state is for '" + name +
               "', this session runs " + algorithm_name());
  }
  // Read aside and committed only once the whole frame has been read, so a
  // failed load leaves the session fresh for a clean first step().  The
  // fresh Session is the placeholder every field below overwrites: the
  // agent's load() replaces all its weights, moments and RNG words.
  GlovaResult restored = read_glova_result(is);
  auto session = std::make_unique<Session>(testbench_, session_config_, op_config_,
                                           agent_config_, verifier_options_);
  Session& s = *session;
  s.iter = state::parse_u64(state::expect_line(is, to_lower(algorithm_name())),
                            std::string(algorithm_name()) + " iteration");
  s.rng.restore(state::expect_line(is, "rng"));
  s.mc_rng.restore(state::expect_line(is, "mc_rng"));
  s.x_last = state::read_doubles(is, "x_last");
  load_policy_state(is);
  s.buffer.load(is);
  s.last_worst.load(is);
  s.agent.load(is);
  s.engine.load_state(is);
  state::expect_line(is, "optimizer-state-end");
  result_ = std::move(restored);
  s_ = std::move(session);
  // The session is live from here: the saved wall time carries into
  // elapsed_seconds() so wall-clock budgets span process restarts.
  wall_offset_ = result_.wall_seconds;
  t0_ = std::chrono::steady_clock::now();
  started_ = true;
}

opt::Turbo Optimizer::turbo_init(std::size_t budget) {
  Session& s = *s_;
  const circuits::SizingSpec& sizing = testbench_->sizing();
  const circuits::PerformanceSpec& spec = testbench_->performance();
  const std::size_t p = sizing.dimension();
  opt::TurboConfig turbo_cfg;
  turbo_cfg.n_init = std::max<std::size_t>(8, p);
  opt::Turbo turbo(p, turbo_cfg, s.rng.split(0x7B0));
  const pdk::PvtCorner typical = pdk::typical_corner();
  // Always collect at least the warmup set: even when the first sample is
  // already typical-feasible, the replay buffer needs a diverse initial
  // dataset for the critic.
  const std::size_t turbo_min = std::min<std::size_t>(turbo_cfg.n_init + 4, budget);
  while (s.engine.simulation_count() < budget) {
    const auto points = turbo.ask(1);
    std::vector<double> values;
    values.reserve(points.size());
    for (const auto& x01 : points) {
      const auto x = sizing.denormalize(x01);
      values.push_back(reward_from_metrics(spec, s.engine.evaluate_one(x, typical, {})));
    }
    turbo.tell(points, values);
    if (turbo.best_value() >= kSuccessReward && s.engine.simulation_count() >= turbo_min) break;
  }
  result_.turbo_evaluations = s.engine.simulation_count();
  log_info(algorithm_name(), " init: TuRBO best reward ", turbo.best_value(), " after ",
           result_.turbo_evaluations, " typical-condition simulations");
  return turbo;
}

double Optimizer::sample_corner(std::span<const double> x_phys, std::size_t corner, Rng& rng,
                                CornerPresample* keep) {
  Session& s = *s_;
  auto hs = op_config_.sample_conditions(*testbench_, x_phys, op_config_.n_opt, rng);
  auto metrics = s.engine.evaluate_batch(x_phys, op_config_.corners[corner], hs);
  const double worst = worst_reward_of(testbench_->performance(), metrics);
  s.last_worst.update(corner, worst);
  if (keep) *keep = {corner, std::move(hs), std::move(metrics)};
  return worst;
}

std::optional<double> Optimizer::verify_or_store(std::vector<double> x01,
                                                 std::vector<double> x_phys,
                                                 double reward_worst, bool gate, int updates,
                                                 const CornerPresample* reuse) {
  Session& s = *s_;
  IterationTrace trace;
  trace.iteration = s.iter;
  trace.reward_worst = reward_worst;
  const rl::EnsembleCritic::Bound bound = s.agent.critic().bound(x01);
  trace.critic_mean = bound.mean;
  trace.critic_bound = bound.risk_adjusted;
  trace.mu_sigma_pass = gate;

  double stored = reward_worst;
  if (gate) {
    // Full verification with the policy's gate and ordering.
    trace.attempted_verification = true;
    const VerificationOutcome outcome = s.verifier.verify(x_phys, s.last_worst, s.mc_rng, reuse);
    for (const auto& [j, w] : outcome.corner_worst_rewards) {
      s.last_worst.update(j, w);
      stored = std::min(stored, w);  // verification failures are the most
                                     // informative worst-case rewards
    }
    if (outcome.passed) {
      result_.success = true;
      result_.rl_iterations = s.iter;
      result_.x01_final = std::move(x01);
      result_.x_phys_final = std::move(x_phys);
      result_.termination = "verified";
      trace.sims_total = s.engine.simulation_count();
      result_.trace.push_back(trace);
      return std::nullopt;
    }
  }

  s.buffer.add(x01, stored);
  if (updates > 0) (void)s.agent.update(s.buffer, static_cast<std::size_t>(updates));
  trace.sims_total = s.engine.simulation_count();
  result_.trace.push_back(trace);
  s.x_last = std::move(x01);
  return stored;
}

void Optimizer::reanchor(double stored) {
  Session& s = *s_;
  if (const auto best = s.buffer.best(); best && stored < best->reward - 0.05) {
    s.x_last = best->x01;
  }
}

bool Optimizer::iterate() {
  Session& s = *s_;
  if (s.iter >= session_config_.max_iterations) return false;
  ++s.iter;
  if (!do_step()) return false;
  result_.rl_iterations = s.iter;
  return s.iter < session_config_.max_iterations;
}

bool Optimizer::step() {
  if (finished_) return false;
  if (cancel_requested_) {  // cancelled between steps, before this call
    result_.termination = cancel_reason_;
    finish();
    return false;
  }
  // RAII so an exception escaping do_start()/do_step() (e.g. a failing
  // testbench evaluation) still clears the flag: a subsequent cancel() can
  // then finalize the session instead of deferring forever.
  struct StepScope {
    bool& flag;
    explicit StepScope(bool& f) : flag(f) { flag = true; }
    ~StepScope() { flag = false; }
  } scope(in_step_);
  if (!started_) {
    t0_ = std::chrono::steady_clock::now();
    s_ = std::make_unique<Session>(testbench_, session_config_, op_config_, agent_config_,
                                   verifier_options_);
    do_start();
    result_.termination = "iteration-cap";
    // Marked only after do_start() succeeds: if initialization throws, a
    // retrying step() must run it again from scratch on a fresh Session
    // instead of stepping a half-built one.
    started_ = true;
    for (const auto& obs : observers_) obs->on_start(*this);
  }
  const bool more = iterate();
  // A frame saved after this step carries its wall time, so a restored
  // session's clock and wall-clock budget continue from here.
  result_.wall_seconds = elapsed_seconds();
  if (!observers_.empty() && !result_.trace.empty()) {
    const EngineStats stats = s_->engine.stats();
    for (const auto& obs : observers_) obs->on_iteration(*this, result_.trace.back(), stats);
  }
  if (more && !cancel_requested_) {
    if (const char* reason = budget_.exceeded_by(s_->engine.simulation_count(),
                                                 result_.rl_iterations, elapsed_seconds())) {
      cancel(reason);
    }
  }
  if (!more) {
    finish();  // natural termination: the algorithm set its own reason
  } else if (cancel_requested_) {
    result_.termination = cancel_reason_;
    finish();
  }
  return true;
}

void Optimizer::cancel(std::string reason) {
  if (finished_) return;
  cancel_requested_ = true;
  cancel_reason_ = reason.empty() ? "cancelled" : std::move(reason);
  if (!in_step_) {
    result_.termination = cancel_reason_;
    finish();
  }
}

void Optimizer::finish() {
  if (finished_) return;
  finished_ = true;
  if (s_) {
    const EngineStats stats = s_->engine.stats();
    result_.engine_stats = stats;
    result_.n_simulations = stats.requested;
    result_.n_simulations_executed = stats.executed;
    result_.n_cache_hits = stats.cache_hits;
  }
  result_.wall_seconds = elapsed_seconds();
  const SimulationCost& cost = session_config_.cost;
  result_.modeled_runtime = static_cast<double>(result_.n_simulations) * cost.per_simulation +
                            static_cast<double>(result_.rl_iterations) * cost.per_rl_iteration;
  for (const auto& obs : observers_) obs->on_finish(*this, result_);
}

const GlovaResult& Optimizer::result() const {
  if (!finished_) {
    throw std::logic_error(
        "Optimizer::result(): session still running; drive step() until done() or cancel()");
  }
  return result_;
}

GlovaResult Optimizer::run() {
  while (!finished_) step();
  return result_;
}

void Optimizer::add_observer(std::shared_ptr<RunObserver> observer) {
  if (observer) observers_.push_back(std::move(observer));
}

// ---------------------------------------------------------------------------

ProgressLogObserver::ProgressLogObserver(std::size_t every)
    : every_(every == 0 ? 1 : every) {}

void ProgressLogObserver::on_start(Optimizer& session) {
  log_info(session.algorithm_name(), ": session started");
}

void ProgressLogObserver::on_iteration(Optimizer& session, const IterationTrace& trace,
                                       const EngineStats& stats) {
  if (trace.iteration % every_ != 0) return;
  log_info(session.algorithm_name(), ": iter ", trace.iteration, " reward_worst ",
           trace.reward_worst, " sims ", stats.requested, " (", stats.cache_hits,
           " cache hits)");
}

void ProgressLogObserver::on_finish(Optimizer& session, const GlovaResult& result) {
  log_info(session.algorithm_name(), ": finished (", result.termination, ") after ",
           result.rl_iterations, " iterations, ", result.n_simulations, " simulations");
}

EarlyStopObserver::EarlyStopObserver(std::size_t patience, double min_improvement)
    : patience_(patience == 0 ? 1 : patience), min_improvement_(min_improvement) {}

void EarlyStopObserver::on_iteration(Optimizer& session, const IterationTrace& trace,
                                     const EngineStats& stats) {
  (void)stats;
  if (!has_best_ || trace.reward_worst > best_ + min_improvement_) {
    has_best_ = true;
    best_ = trace.reward_worst;
    stalled_ = 0;
    return;
  }
  if (++stalled_ >= patience_) session.cancel("early-stop");
}

}  // namespace glova::core
