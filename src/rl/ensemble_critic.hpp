// Ensemble-based critic (paper Sec. IV-B, Eq. 6):
//
//   Q(x) = E[Q_i(x)] + beta1 * sigma[Q_i(x)],   beta1 < 0 (risk avoidance)
//
// Each base model is a 4-layer MLP trained on its own batch from the
// worst-case replay buffer; the ensemble spread estimates the uncertainty of
// the design-reliability bound that only ~N' = 2..5 mismatch samples per
// iteration could never pin down directly.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/replay_buffer.hpp"

namespace glova::rl {

struct CriticConfig {
  std::size_t ensemble_size = 5;
  std::size_t hidden = 64;
  double beta1 = -3.0;        ///< risk-avoidance parameter (Eq. 6)
  double learning_rate = 1e-3;
  double bias = 0.0;          ///< the constant bias term of Algorithm 1's losses
};

class EnsembleCritic {
 public:
  EnsembleCritic(std::size_t input_dim, const CriticConfig& config, Rng& rng);

  /// Mean and std of the base-model outputs and the risk-adjusted bound
  /// Q(x) of Eq. (6) (Fig. 3 reproduction).
  struct Bound {
    double mean = 0.0;
    double std = 0.0;
    double risk_adjusted = 0.0;
  };
  /// Runs every base model once at x and keeps their activations, so
  /// input_gradient() can backpropagate this bound without a second pass.
  [[nodiscard]] Bound bound(std::span<const double> x);

  /// One gradient step of base model `i` on the (x, r) pairs of `batch`:
  /// L_Qi = MSE(r, Q_i(x) + bias).  `grad` is the caller's scratch for the
  /// parameter gradient (resized to fit), so a trainer can share one buffer
  /// across networks.  Returns the batch loss.
  double train_base(std::size_t i, std::span<const Experience* const> batch,
                    std::vector<double>& grad);

  /// dLdq * dQ/dx of the bound the last bound() call computed, written to
  /// `dx` (input_dim() entries); used to push gradients into the actor.
  /// Throws std::logic_error when no bound() came first.
  void input_gradient(double dLdq, std::span<double> dx);

  [[nodiscard]] std::size_t input_dim() const { return models_.front().input_dim(); }
  [[nodiscard]] std::size_t ensemble_size() const { return models_.size(); }
  [[nodiscard]] const CriticConfig& config() const { return config_; }

  /// Text-serialize every base model's parameters and optimizer moments
  /// (architecture and config come from the constructor).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  CriticConfig config_;
  std::vector<nn::Mlp> models_;
  std::vector<nn::Adam> optimizers_;
  // Scratch, sized on first use.  bound() fills member_ws_/outs_/last_ for
  // input_gradient(); train_base() has its own workspace so training never
  // clobbers them.
  std::vector<nn::Mlp::Workspace> member_ws_;
  std::vector<double> outs_;
  Bound last_;
  std::vector<double> member_dx_;
  nn::Mlp::Workspace train_ws_;
};

}  // namespace glova::rl
