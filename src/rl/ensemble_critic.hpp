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
#include <functional>
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
  /// Bounds of n = out.size() designs, lane-major like nn::Mlp batches
  /// (x[j * n + s] is coordinate j of design s): every base model runs once
  /// on the batch, the members concurrently as in train(), and keeps its
  /// activations, so input_gradient() can backpropagate these bounds
  /// without a second pass.
  void bound(std::span<const double> x, std::span<Bound> out);
  /// The bound of one design (the batch n = 1).
  [[nodiscard]] Bound bound(std::span<const double> x);

  /// One gradient step of every base model i on its own replay batch
  /// `batches[i]`: L_Qi = MSE(r, Q_i(x) + bias), one forward and one
  /// backward over the whole batch.  The members train concurrently on the
  /// process pool (ThreadPool::fork_join) with the bits of a serial loop:
  /// each touches only its own network, optimizer and workspace.  A given
  /// `alongside` runs as one more index of the same fan-out, so it must
  /// touch none of the critic's state.  Training records into the members'
  /// bound() workspaces, so it ends the last bound(): input_gradient()
  /// needs a new one.  Returns the member batch losses summed in member
  /// order.
  double train(std::span<const std::vector<const Experience*>> batches,
               const std::function<void()>& alongside = {});

  /// dLdq[s] * dQ/dx of each bound the last bound() call computed, written
  /// to `dx` (input_dim() * n entries, lane-major); used to push gradients
  /// into the actor.  The member backwards run concurrently; their dx are
  /// summed in member order.  Throws std::logic_error when no bound() of
  /// this batch size came first.
  void input_gradient(std::span<const double> dLdq, std::span<double> dx);
  /// The same for the batch n = 1.
  void input_gradient(double dLdq, std::span<double> dx);

  [[nodiscard]] std::size_t input_dim() const { return models_.front().input_dim(); }
  [[nodiscard]] std::size_t ensemble_size() const { return models_.size(); }
  [[nodiscard]] const CriticConfig& config() const { return config_; }

  /// Text-serialize every base model's parameters and optimizer moments
  /// (architecture and config come from the constructor).  `load` ends the
  /// last bound(), whose activations belong to the old weights.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  CriticConfig config_;
  std::vector<nn::Mlp> models_;
  std::vector<nn::Adam> optimizers_;
  // Sized on first use to the batch.  bound() fills member_ws_ / outs_ /
  // last_ for input_gradient(); train() records into member_ws_ and empties
  // last_.  The per-member scratch of train() and input_gradient() is
  // borrowed per call from a process-wide shelf (ensemble_critic.cpp).
  std::vector<nn::Mlp::Workspace> member_ws_;
  std::vector<double> outs_;  ///< member i's output for design s at [i * n + s]
  std::vector<Bound> last_;
};

}  // namespace glova::rl
