#include "rl/agent.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/state_io.hpp"
#include "common/text.hpp"
#include "nn/loss.hpp"

namespace glova::rl {

namespace {

nn::Mlp make_actor(std::size_t design_dim, std::size_t hidden, Rng stream) {
  // 4-layer network; sigmoid output keeps proposals inside [0,1]^p.
  return nn::Mlp(std::vector<std::size_t>{design_dim, hidden, hidden, hidden, design_dim},
                 nn::Activation::Tanh, nn::Activation::Sigmoid, stream);
}

EnsembleCritic make_critic(std::size_t design_dim, const CriticConfig& config, Rng stream) {
  return EnsembleCritic(design_dim, config, stream);
}

}  // namespace

RiskSensitiveAgent::RiskSensitiveAgent(std::size_t design_dim, const AgentConfig& config, Rng rng)
    : config_(config),
      rng_(rng),
      actor_(make_actor(design_dim, config.hidden, rng.split(0xAC70))),
      actor_opt_(actor_.parameter_count(),
                 nn::AdamConfig{config.actor_learning_rate, 0.9, 0.999, 1e-8}),
      critic_(make_critic(design_dim, config.critic, rng.split(0xC217))),
      noise_(config.noise_initial) {}

double RiskSensitiveAgent::update(const WorstCaseReplayBuffer& buffer, std::size_t rounds) {
  if (buffer.empty() || rounds == 0) return 0.0;
  member_batches_.resize(critic_.ensemble_size());
  // What the actor's index of the fan-out uses is sized here, on the
  // calling thread, so its memory does not land in a pool worker's arena.
  grad_.resize(actor_.parameter_count());
  actor_.reserve(actor_ws_, actor_scratch_, config_.batch_size);
  double loss = 0.0;
  for (std::size_t k = 0; k < rounds; ++k) {
    ++updates_;
    // The round's batches from the agent's RNG: the critic members' in
    // member order, then the actor's.  These are the draws of a serial
    // loop, because training never touches rng_.
    for (std::vector<const Experience*>& batch : member_batches_) {
      buffer.sample(config_.batch_size, rng_, batch);
    }
    buffer.sample(config_.batch_size, rng_, batch_);
    gather_designs(batch_, actor_.input_dim(), batch_x_);
    // --- critic: each base model trains on its own batch (Sec. IV-B).  One
    // more index of the same fan-out runs the actor, which needs no critic
    // there: the last round's backward and Adam step, then this round's
    // forward ---
    const bool previous = k > 0;
    critic_.train(member_batches_, [this, previous] {
      if (previous) step_actor();
      (void)actor_.forward(batch_x_, actor_ws_);
    });
    loss = actor_loss();
  }
  step_actor();
  return loss;
}

double RiskSensitiveAgent::actor_loss() {
  // --- actor: minimize MSE(0.2, Q(A(x)) + bias) through the frozen critic,
  // the whole batch at once: critic bounds of the actions the actor forward
  // left in actor_ws_, and their input gradients ---
  const std::span<const double> actions = actor_ws_.out;
  const std::size_t n = batch_.size();
  bounds_.resize(n);
  critic_.bound(actions, bounds_);
  dLdq_.resize(n);
  double loss = 0.0;
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double q = bounds_[s].risk_adjusted + config_.critic.bias;
    loss += nn::mse(q, config_.target_reward) * scale;
    dLdq_[s] = nn::mse_grad_scalar(q, config_.target_reward) * scale;
  }
  dLda_.resize(actions.size());
  critic_.input_gradient(dLdq_, dLda_);
  return loss;
}

void RiskSensitiveAgent::step_actor() {
  std::fill(grad_.begin(), grad_.end(), 0.0);
  actor_.backward(actor_ws_, actor_scratch_, dLda_, grad_, {});
  actor_opt_.step(actor_.parameters(), grad_);
}

std::span<const double> RiskSensitiveAgent::actor_mean(std::span<const double> x_last) {
  if (x_last.size() != actor_.input_dim()) {
    throw std::invalid_argument("RiskSensitiveAgent: bad design size");
  }
  return actor_.forward(x_last, actor_ws_);
}

std::vector<double> RiskSensitiveAgent::propose(std::span<const double> x_last) {
  const std::span<const double> mean = actor_mean(x_last);
  std::vector<double> x_new(mean.begin(), mean.end());
  for (double& v : x_new) {
    v = std::clamp(v + rng_.normal(0.0, noise_), 0.0, 1.0);
  }
  noise_ = std::max(config_.noise_min, noise_ * config_.noise_decay);
  return x_new;
}

std::vector<double> RiskSensitiveAgent::propose_screened(std::span<const double> x_last,
                                                         std::size_t candidates) {
  const std::span<const double> mean = actor_mean(x_last);
  const std::size_t p = mean.size();
  const std::size_t m = std::max<std::size_t>(candidates, 1);
  // All candidates' noise first, candidate by candidate, then one batched
  // critic pass over them.
  candidates_.resize(p * m);
  for (std::size_t c = 0; c < m; ++c) {
    // A fraction of candidates explore at doubled noise so the screen can
    // escape shallow local basins.
    const double sigma = (c % 4 == 3) ? 2.0 * noise_ : noise_;
    for (std::size_t j = 0; j < p; ++j) {
      candidates_[j * m + c] = std::clamp(mean[j] + rng_.normal(0.0, sigma), 0.0, 1.0);
    }
  }
  bounds_.resize(m);
  critic_.bound(candidates_, bounds_);
  std::vector<double> best(mean.begin(), mean.end());
  double best_bound = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < m; ++c) {
    if (bounds_[c].risk_adjusted > best_bound) {
      best_bound = bounds_[c].risk_adjusted;
      for (std::size_t j = 0; j < p; ++j) best[j] = candidates_[j * m + c];
    }
  }
  noise_ = std::max(config_.noise_min, noise_ * config_.noise_decay);
  return best;
}

std::vector<double> RiskSensitiveAgent::act(std::span<const double> x_last) {
  const std::span<const double> out = actor_mean(x_last);
  return {out.begin(), out.end()};
}

void RiskSensitiveAgent::save(std::ostream& os) const {
  os << "agent " << updates_ << ' ' << format_double_roundtrip(noise_) << '\n';
  os << "agent_rng " << rng_.save() << '\n';
  actor_.save(os);
  actor_opt_.save(os);
  critic_.save(os);
}

void RiskSensitiveAgent::load(std::istream& is) {
  std::istringstream head(state::expect_line(is, "agent"));
  std::size_t updates = 0;
  double noise = 0.0;
  if (!(head >> updates >> noise)) state::bad("malformed agent header");
  rng_.restore(state::expect_line(is, "agent_rng"));
  actor_.load(is);
  actor_opt_.load(is);
  critic_.load(is);
  updates_ = updates;
  noise_ = noise;
}

}  // namespace glova::rl
