// Step-driven optimizer sessions: the control-plane API of the repo.
//
// Every optimization algorithm (GLOVA, PVTSizing, RobustAnalog) is one
// `core::Optimizer` session — a resumable loop driven one iteration at a
// time:
//
//   auto opt = core::make_optimizer(spec);        // see run_spec.hpp
//   while (!opt->done()) opt->step();             // external control loop
//   const core::GlovaResult& res = opt->result();
//
// The session is the same for all three: an engine, RNG streams, the
// worst-case replay and last-worst buffers, an actor-critic agent, a
// verifier, the checkpoint codec and the verify-then-record tail of an
// iteration all live here.  An algorithm is only its policy: which corners
// it samples, how it gates verification and how it initialises
// (do_start/do_step in the derived class).
//
// `run()` is a thin loop over `step()` and produces bit-identical fixed-seed
// results (tests/test_optimizer_session.cpp pins the parity; the pinned-seed
// regression pins the absolute numbers).  Callers observe progress through
// `RunObserver` (one callback per iteration, carrying the `IterationTrace`
// row plus an `EngineStats` snapshot) and bound a session with `RunBudget`
// (simulations / iterations / wall-clock) or `cancel()` — both terminate
// with a well-formed partial result, no algorithm forked.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuits/testbench.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/evaluation_engine.hpp"
#include "core/verifier.hpp"
#include "rl/agent.hpp"
#include "rl/replay_buffer.hpp"

namespace glova::opt {
class Turbo;
}

namespace glova::core {

/// The knobs every algorithm's session shares; each algorithm's config
/// extends it with its policy knobs.
struct SessionConfig {
  VerifMethod method = VerifMethod::C;
  std::string corner_filter = "all";  ///< RunSpec `corner_filter` (docs/run_spec.md)
  std::size_t n_opt_samples = 3;      ///< N' (paper: parallel sample size 3)
  std::size_t batch_size = 10;        ///< replay batch (paper Sec. VI-B)
  std::size_t hidden = 64;
  std::size_t max_iterations = 3000;  ///< success-rate cap
  std::uint64_t seed = 1;
  SimulationCost cost;
  EngineConfig engine;                ///< evaluation-stack knobs (parallelism, cache)
};

/// One row of the per-iteration trace (Fig. 3 reproduction).
struct IterationTrace {
  std::size_t iteration = 0;
  double reward_worst = 0.0;        ///< sampled worst-case reward of x_new
  double critic_mean = 0.0;         ///< E[Q_i(x_new)]
  double critic_bound = 0.0;        ///< E + beta1 * sigma (Eq. 6)
  bool mu_sigma_pass = false;       ///< step-4 gate outcome
  bool attempted_verification = false;
  std::uint64_t sims_total = 0;     ///< cumulative simulations
};

struct GlovaResult {
  bool success = false;             ///< true iff full verification passed
  std::size_t rl_iterations = 0;    ///< completed main-loop iterations
  /// Requested simulations — the paper's "# Simulation" column.  Cache hits
  /// count: the optimizer asked for them whether or not they had to run.
  std::uint64_t n_simulations = 0;
  /// Simulations the engine actually ran (n_simulations - n_cache_hits).
  std::uint64_t n_simulations_executed = 0;
  std::uint64_t n_cache_hits = 0;
  /// Full evaluation-funnel snapshot (requested/executed/cache-hit plus the
  /// SPICE dc_warm_* counters), identical across GLOVA and both baselines so
  /// Table II comparisons read from one funnel.
  EngineStats engine_stats;
  double wall_seconds = 0.0;        ///< measured wall time (timing; excluded
                                    ///< from bit-identical parity checks)
  double modeled_runtime = 0.0;     ///< sims * t_sim + iterations * t_iter
  std::uint64_t turbo_evaluations = 0;  ///< typical-condition init samples
  std::vector<double> x01_final;    ///< verified design (normalized), if any
  std::vector<double> x_phys_final; ///< verified design (physical units)
  std::vector<IterationTrace> trace;
  std::string termination;          ///< "verified" / "iteration-cap" / ...
};

/// Line-oriented text serialization of a GlovaResult (final or partial);
/// doubles round-trip via max_digits10.  One shared codec: campaign
/// checkpoints (every version) and optimizer session state embed results in
/// exactly this byte form.
void write_glova_result(std::ostream& os, const GlovaResult& r);
[[nodiscard]] GlovaResult read_glova_result(std::istream& is);

/// Session-level resource limits, enforced after every step.  0 = unlimited.
/// `max_iterations` here is a cross-algorithm cap on top of whatever
/// iteration limit the algorithm's own config carries.
struct RunBudget {
  std::uint64_t max_simulations = 0;
  std::size_t max_iterations = 0;
  double max_wall_seconds = 0.0;

  /// The termination reason this budget assigns to the given usage, or
  /// nullptr while everything is within limits.
  [[nodiscard]] const char* exceeded_by(std::uint64_t simulations, std::size_t iterations,
                                        double wall_seconds) const;

  friend bool operator==(const RunBudget&, const RunBudget&) = default;
};

class Optimizer;

/// Progress callbacks.  `on_iteration` fires once per completed step with
/// the trace row the step produced and a fresh engine-stats snapshot; the
/// non-const session reference lets observers call `cancel()` (budget
/// enforcement, early stopping).  Callbacks run on the driving thread.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  virtual void on_start(Optimizer& /*session*/) {}
  virtual void on_iteration(Optimizer& /*session*/, const IterationTrace& /*trace*/,
                            const EngineStats& /*stats*/) {}
  virtual void on_finish(Optimizer& /*session*/, const GlovaResult& /*result*/) {}
};

/// One sizing session.  The base owns the loop protocol, budgets,
/// cancellation, observers, the session state and its checkpoint codec, the
/// verify-then-record tail of an iteration and the result finalization;
/// derived classes implement the policy (do_start/do_step).
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Perform one optimization iteration (the first call also runs the
  /// algorithm's initialization).  Returns true if work was done, false if
  /// the session had already finished.
  bool step();

  /// True once the session has terminated (verified, capped, budget-stopped,
  /// or cancelled).  No further step() will do work.
  [[nodiscard]] bool done() const { return finished_; }

  /// The finalized result.  Valid only once done(); throws std::logic_error
  /// while the session is still running.
  [[nodiscard]] const GlovaResult& result() const;

  /// Run the session to termination: a thin loop over step().
  [[nodiscard]] GlovaResult run();

  /// Request termination.  Mid-run (from an observer) the current step
  /// completes and the session finishes with `termination == reason`; called
  /// between steps the session finishes immediately with a well-formed
  /// partial result.
  void cancel(std::string reason = "cancelled");
  [[nodiscard]] bool cancel_requested() const { return cancel_requested_; }

  /// Session budget, enforced by the base after every step.  May be set or
  /// changed at any point, also after construction by make_optimizer.
  void set_budget(RunBudget budget) { budget_ = budget; }
  [[nodiscard]] const RunBudget& budget() const { return budget_; }

  void add_observer(std::shared_ptr<RunObserver> observer);

  [[nodiscard]] virtual const char* algorithm_name() const = 0;

  /// Serialize the live session — the partial result plus the full session
  /// state (agent weights, RNG streams, buffers, engine counters/cache and
  /// the policy's own state) — so an identically configured fresh session
  /// restored via load_state() continues bit-identically without replaying
  /// a single step.  Only a started, unfinished session can be saved;
  /// throws std::logic_error otherwise (terminal sessions are captured by
  /// their result, fresh ones by their spec).
  void save_state(std::ostream& os) const;

  /// Restore a session saved by save_state().  Must be called on a fresh
  /// session (no step() yet) constructed with the same configuration and
  /// testbench; the session is `started` afterwards and the next step()
  /// continues where the saved one left off.  Observer on_start callbacks do
  /// not re-fire.  Throws std::logic_error on protocol misuse and
  /// std::runtime_error on malformed state, leaving the session fresh.
  void load_state(std::istream& is);

  /// Iterations completed so far (== result().rl_iterations when done).
  [[nodiscard]] std::size_t iterations_completed() const { return result_.rl_iterations; }

  /// The session's evaluation engine; nullptr before the first step.
  [[nodiscard]] const EvaluationEngine* engine() const { return s_ ? &s_->engine : nullptr; }

  /// Seconds since the first step (0 before it), including the time a
  /// restored session had accrued when it was saved.
  [[nodiscard]] double elapsed_seconds() const;

 protected:
  /// `ensemble_size` and `beta1` shape the critic (1 and 0 make it
  /// risk-neutral); `verifier` sets how full verification gates and orders
  /// its simulations.
  Optimizer(circuits::TestbenchPtr testbench, const SessionConfig& config,
            std::size_t ensemble_size, double beta1, VerifierOptions verifier);

  /// The state of a running session, built at the first step (or by
  /// load_state) and carried whole by the checkpoint codec.
  struct Session {
    Session(const circuits::TestbenchPtr& testbench, const SessionConfig& config,
            const OperationalConfig& op_config, const rl::AgentConfig& agent_config,
            const VerifierOptions& verifier_options);

    EvaluationEngine engine;
    Rng rng;     ///< root stream; the policies split their own streams off it
    Rng mc_rng;  ///< mismatch draws of the main loop and of verification
    rl::WorstCaseReplayBuffer buffer;
    rl::LastWorstBuffer last_worst;
    rl::RiskSensitiveAgent agent;
    Verifier verifier;
    std::vector<double> x_last;  ///< the design the actor proposes from
    std::size_t iter = 0;        ///< iterations begun
  };

  /// The policy's initialization (initial sampling, buffer seeding, agent
  /// warm-up), run inside the first step() on a fresh Session.  It must
  /// leave `x_last` set.
  virtual void do_start() = 0;
  /// The policy's part of one main-loop iteration (the base has already
  /// counted it in `Session::iter`): propose, sample corners, then hand over
  /// to verify_or_store().  Returns false once the design verified.
  virtual bool do_step() = 0;
  /// State a policy keeps beyond the Session, written into the checkpoint
  /// after `x_last`.  Nothing by default.
  virtual void save_policy_state(std::ostream& /*os*/) const {}
  virtual void load_policy_state(std::istream& /*is*/) {}

  [[nodiscard]] Session& session() { return *s_; }

  /// TuRBO initial sampling at the typical condition (GLOVA's step 0,
  /// adopted from PVTSizing): sample until a design meets every constraint,
  /// after at least a warm-up set, or `budget` simulations are spent.
  /// Records the spend as the result's turbo_evaluations.
  [[nodiscard]] opt::Turbo turbo_init(std::size_t budget);

  /// Simulate `x_phys` at corner `corner` under N' mismatch draws from
  /// `rng`, refresh the last-worst buffer there and return the worst
  /// reward.  `keep`, if given, receives the draws and their metrics.
  double sample_corner(std::span<const double> x_phys, std::size_t corner, Rng& rng,
                       CornerPresample* keep = nullptr);

  /// Fig. 2 steps 5-6 for the proposal `x01` whose sampled worst-case
  /// reward is `reward_worst`: trace it, fully verify it when `gate` is
  /// open (folding the verifier's corner rewards into the last-worst buffer
  /// and the stored reward) and finish the session if it passes; otherwise
  /// store the reward, run `updates` agent updates and continue the actor
  /// chain from the proposal.  Returns the stored reward, or nullopt once
  /// the design verified.
  [[nodiscard]] std::optional<double> verify_or_store(std::vector<double> x01,
                                                      std::vector<double> x_phys,
                                                      double reward_worst, bool gate, int updates,
                                                      const CornerPresample* reuse = nullptr);

  /// Re-anchor the actor input on the best-known design when the stored
  /// reward fell clearly below it: the actor chain otherwise has no way
  /// back after a streak of bad proposals.
  void reanchor(double stored);

  const circuits::TestbenchPtr testbench_;
  const OperationalConfig op_config_;
  GlovaResult result_;

 private:
  /// One main-loop iteration: the cap check and count around do_step().
  bool iterate();
  void finish();

  SessionConfig session_config_;
  rl::AgentConfig agent_config_;
  VerifierOptions verifier_options_;
  std::unique_ptr<Session> s_;

  bool started_ = false;
  bool finished_ = false;
  bool in_step_ = false;
  bool cancel_requested_ = false;
  std::string cancel_reason_;
  RunBudget budget_;
  std::vector<std::shared_ptr<RunObserver>> observers_;
  std::chrono::steady_clock::time_point t0_{};
  /// Wall seconds accrued before a load_state() restore; elapsed_seconds()
  /// (and thus wall-clock budgets) count across process restarts.
  double wall_offset_ = 0.0;
};

// ---------------------------------------------------------------------------
// Built-in observers.

/// Logs one line every `every` iterations (and on start/finish) via log_info.
class ProgressLogObserver final : public RunObserver {
 public:
  explicit ProgressLogObserver(std::size_t every = 25);
  void on_start(Optimizer& session) override;
  void on_iteration(Optimizer& session, const IterationTrace& trace,
                    const EngineStats& stats) override;
  void on_finish(Optimizer& session, const GlovaResult& result) override;

 private:
  std::size_t every_;
};

/// Cancels after `patience` consecutive iterations without the sampled
/// worst-case reward improving by more than `min_improvement`.
class EarlyStopObserver final : public RunObserver {
 public:
  explicit EarlyStopObserver(std::size_t patience, double min_improvement = 0.0);
  void on_iteration(Optimizer& session, const IterationTrace& trace,
                    const EngineStats& stats) override;

 private:
  std::size_t patience_;
  double min_improvement_;
  std::size_t stalled_ = 0;
  double best_ = 0.0;
  bool has_best_ = false;
};

}  // namespace glova::core
