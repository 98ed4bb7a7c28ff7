#include "rl/ensemble_critic.hpp"

#include <array>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "common/state_io.hpp"
#include "nn/loss.hpp"

namespace glova::rl {

EnsembleCritic::EnsembleCritic(std::size_t input_dim, const CriticConfig& config, Rng& rng)
    : config_(config) {
  if (config_.ensemble_size == 0) throw std::invalid_argument("EnsembleCritic: empty ensemble");
  models_.reserve(config_.ensemble_size);
  optimizers_.reserve(config_.ensemble_size);
  for (std::size_t i = 0; i < config_.ensemble_size; ++i) {
    Rng stream = rng.split(i + 1);
    // 4-layer network (paper Sec. IV-A): input -> h -> h -> h -> 1.
    models_.emplace_back(
        std::vector<std::size_t>{input_dim, config_.hidden, config_.hidden, config_.hidden, 1},
        nn::Activation::Tanh, nn::Activation::Identity, stream);
    optimizers_.emplace_back(models_.back().parameter_count(),
                             nn::AdamConfig{config_.learning_rate, 0.9, 0.999, 1e-8});
  }
}

EnsembleCritic::Bound EnsembleCritic::bound(std::span<const double> x) {
  const std::size_t e = models_.size();
  member_ws_.resize(e);
  outs_.resize(e);
  for (std::size_t i = 0; i < e; ++i) outs_[i] = models_[i].forward(x, member_ws_[i])[0];
  double mean = 0.0;
  for (const double o : outs_) mean += o;
  mean /= static_cast<double>(e);
  double var = 0.0;
  for (const double o : outs_) var += (o - mean) * (o - mean);
  var = e > 1 ? var / static_cast<double>(e - 1) : 0.0;
  last_.mean = mean;
  last_.std = std::sqrt(var);
  last_.risk_adjusted = mean + config_.beta1 * last_.std;
  return last_;
}

double EnsembleCritic::train_base(std::size_t i, std::span<const Experience* const> batch,
                                  std::vector<double>& grad) {
  if (i >= models_.size()) throw std::out_of_range("EnsembleCritic::train_base");
  if (batch.empty()) throw std::invalid_argument("EnsembleCritic::train_base: empty batch");
  nn::Mlp& model = models_[i];
  grad.assign(model.parameter_count(), 0.0);
  double loss = 0.0;
  const double scale = 1.0 / static_cast<double>(batch.size());
  for (const Experience* e : batch) {
    const double pred = model.forward(e->x01, train_ws_)[0] + config_.bias;
    loss += nn::mse(pred, e->reward) * scale;
    const std::array<double, 1> dl{nn::mse_grad_scalar(pred, e->reward) * scale};
    model.backward(train_ws_, dl, grad, {});
  }
  optimizers_[i].step(model.parameters(), grad);
  return loss;
}

void EnsembleCritic::input_gradient(double dLdq, std::span<double> dx) {
  if (dx.size() != input_dim()) {
    throw std::invalid_argument("EnsembleCritic::input_gradient: bad dx size");
  }
  if (member_ws_.empty()) throw std::logic_error("EnsembleCritic::input_gradient: no bound() yet");
  // Q = mean_i Q_i + beta1 * sigma.  dQ/dQ_i = 1/E + beta1 * (Q_i - mean) /
  // ((E-1) * sigma); for sigma -> 0 only the mean term survives.
  const std::size_t e = models_.size();
  member_dx_.resize(dx.size());
  std::fill(dx.begin(), dx.end(), 0.0);
  for (std::size_t i = 0; i < e; ++i) {
    double weight = 1.0 / static_cast<double>(e);
    if (e > 1 && last_.std > 1e-12) {
      weight += config_.beta1 * (outs_[i] - last_.mean) / (static_cast<double>(e - 1) * last_.std);
    }
    const std::array<double, 1> dl{dLdq * weight};
    models_[i].backward(member_ws_[i], dl, {}, member_dx_);
    for (std::size_t d = 0; d < dx.size(); ++d) dx[d] += member_dx_[d];
  }
}

void EnsembleCritic::save(std::ostream& os) const {
  os << "critic " << models_.size() << '\n';
  for (std::size_t i = 0; i < models_.size(); ++i) {
    models_[i].save(os);
    optimizers_[i].save(os);
  }
}

void EnsembleCritic::load(std::istream& is) {
  const std::size_t n = state::parse_u64(state::expect_line(is, "critic"), "critic ensemble size");
  if (n != models_.size()) {
    state::bad("critic ensemble size mismatch: expected " + std::to_string(models_.size()) +
               ", got " + std::to_string(n));
  }
  for (std::size_t i = 0; i < models_.size(); ++i) {
    models_[i].load(is);
    optimizers_[i].load(is);
  }
}

}  // namespace glova::rl
