// Risk-sensitive RL agent (paper Algorithm 1, modified DDPG [21]).
//
// The actor is a 4-layer MLP mapping the previous normalized design to the
// next one; the critic is the ensemble of Sec. IV-B.  Each update step:
//   - every critic base model takes one gradient step on its own batch
//     sampled from the worst-case replay buffer (L_Qi = MSE(r, Q_i(x)+bias)),
//   - the actor takes one step minimizing L_A = MSE(0.2, Q(A(x))+bias),
//     i.e. it is pulled toward designs whose *risk-adjusted* reliability
//     bound reaches the all-constraints-met reward of 0.2,
//   - a new design is proposed as A(x_last) + exploration noise.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/ensemble_critic.hpp"
#include "rl/replay_buffer.hpp"

namespace glova::rl {

struct AgentConfig {
  CriticConfig critic;
  std::size_t hidden = 64;
  std::size_t batch_size = 10;     ///< paper Sec. VI-B
  double actor_learning_rate = 1e-3;
  double target_reward = 0.2;      ///< Eq. (4) success reward
  double noise_initial = 0.20;     ///< exploration noise sigma (normalized units)
  double noise_decay = 0.97;
  double noise_min = 0.03;
};

class RiskSensitiveAgent {
 public:
  RiskSensitiveAgent(std::size_t design_dim, const AgentConfig& config, Rng rng);

  /// `rounds` Algorithm-1 training iterations on the current buffer
  /// contents.  Returns the last round's actor loss (for traces).  No-op if
  /// the buffer is empty or `rounds` is 0.  The result has the bits of `rounds` calls with
  /// rounds = 1, RNG draws included: round k's actor backward and Adam step
  /// and round k + 1's actor forward run beside round k + 1's critic
  /// training, as one more index of its fan-out
  /// (docs/architecture.md#nn-layer, "Member fan-out").
  double update(const WorstCaseReplayBuffer& buffer, std::size_t rounds = 1);

  /// Propose the next design from the last one (actor + exploration noise),
  /// clamped to [0,1]^p.
  [[nodiscard]] std::vector<double> propose(std::span<const double> x_last);

  /// Propose `candidates` noisy variants of the actor output and return the
  /// one with the highest risk-adjusted critic bound (Eq. 6).  This uses the
  /// ensemble exactly as Sec. IV-B intends — the reliability bound guides
  /// the search — at zero simulation cost.
  [[nodiscard]] std::vector<double> propose_screened(std::span<const double> x_last,
                                                     std::size_t candidates);

  /// Deterministic actor output (no exploration noise).
  [[nodiscard]] std::vector<double> act(std::span<const double> x_last);

  [[nodiscard]] EnsembleCritic& critic() { return critic_; }
  [[nodiscard]] double exploration_noise() const { return noise_; }
  [[nodiscard]] std::size_t update_count() const { return updates_; }

  /// Text-serialize the full learning state (agent RNG stream, actor
  /// weights + Adam moments, critic ensemble, noise schedule, update count).
  /// `load` expects an agent constructed with the same design_dim and config.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  /// The actor's output for one design (the batch n = 1).
  std::span<const double> actor_mean(std::span<const double> x_last);
  /// The actor loss of the actions the last actor forward left in
  /// actor_ws_, with its gradient dL/d(action) in dLda_.
  double actor_loss();
  /// The actor's backward from dLda_ and its Adam step.
  void step_actor();

  AgentConfig config_;
  Rng rng_;
  nn::Mlp actor_;
  nn::Adam actor_opt_;
  EnsembleCritic critic_;
  double noise_;
  std::size_t updates_ = 0;
  // Scratch, sized on first use; what the actor's index of the training
  // fan-out uses is sized by update() before the fan-out.  grad_ is the
  // actor's parameter gradient; the critic borrows its members' training
  // scratch (EnsembleCritic::train).
  nn::Mlp::Workspace actor_ws_;
  nn::Mlp::Scratch actor_scratch_;
  std::vector<std::vector<const Experience*>> member_batches_;  ///< one per critic member
  std::vector<const Experience*> batch_;  ///< the actor's
  std::vector<double> grad_;
  std::vector<double> batch_x_;  ///< the actor batch, lane-major
  std::vector<EnsembleCritic::Bound> bounds_;
  std::vector<double> dLdq_;
  std::vector<double> dLda_;
  std::vector<double> candidates_;  ///< propose_screened()'s candidates, lane-major
};

}  // namespace glova::rl
