// Minimal fully-connected network with reverse-mode gradients.
//
// The paper's actor and critic are both "4-layer neural networks"
// (Sec. IV-A).  This implementation keeps all parameters in one flat vector
// so optimizers (nn::Adam) and parameter copies (ensemble base models) are
// trivial, and backward() can return input gradients so the actor can be
// trained through the frozen critic (Algorithm 1's L_A).
//
// Bit-identity contract (docs/architecture.md#nn-layer): each output's
// pre-activation is one sum, bias first, then ascending input index; each
// activation is evaluated once and backward() takes its derivative from the
// stored value; parameter gradients accumulate in call (sample) order.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace glova::nn {

enum class Activation { Identity, Tanh, ReLU, Sigmoid };

/// Value of the activation function.
[[nodiscard]] double activate(Activation act, double x);
/// Derivative of the activation expressed via its output y = activate(act, x).
[[nodiscard]] double activate_grad_from_output(Activation act, double y);

/// Fully-connected feed-forward network.
class Mlp {
 public:
  /// `sizes` lists layer widths including input and output,
  /// e.g. {14, 64, 64, 64, 1} is a 4-layer network on a 14-dim input.
  /// Hidden layers use `hidden`, the final layer uses `output`.
  Mlp(std::vector<std::size_t> sizes, Activation hidden, Activation output, Rng& rng);

  [[nodiscard]] std::size_t input_dim() const { return sizes_.front(); }
  [[nodiscard]] std::size_t output_dim() const { return sizes_.back(); }
  [[nodiscard]] std::size_t layer_count() const { return sizes_.size() - 1; }
  [[nodiscard]] std::size_t parameter_count() const { return params_.size(); }

  [[nodiscard]] std::span<double> parameters() { return params_; }
  [[nodiscard]] std::span<const double> parameters() const { return params_; }

  /// Activations recorded by forward() for backward(), plus backward()'s
  /// scratch.  Buffers are sized on first use, so a workspace reused across
  /// calls makes forward and backward allocation-free.  Owned by whoever
  /// trains or queries the network; any network of the same shape may use it.
  struct Workspace {
    std::vector<std::vector<double>> post;  ///< post[0] is the input, post[l + 1] layer l's output
    std::vector<double> delta;              ///< dL/d(activation) of the layer being walked
    std::vector<double> prev_delta;
  };

  /// Forward pass that records every layer's activations in `ws`.  Returns
  /// the output, a view into `ws` valid until its next forward().
  std::span<const double> forward(std::span<const double> x, Workspace& ws) const;

  /// Backpropagate `dLdy` (gradient of the loss w.r.t. the network output)
  /// through the activations the last forward() recorded in `ws`.
  /// Parameter gradients are *accumulated* into `grad` (parameter_count()
  /// entries) and dL/dx is *written* to `dLdx` (input_dim() entries).  An
  /// empty span skips that output: no `grad` is the frozen-network input
  /// gradient, no `dLdx` skips the first layer's input-gradient product.
  void backward(Workspace& ws, std::span<const double> dLdy, std::span<double> grad,
                std::span<double> dLdx) const;

  /// Text-serialize the flat parameter vector (architecture comes from the
  /// constructor).  `load` throws when the stored count does not match this
  /// network's parameter_count().
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  struct LayerView {
    std::size_t w_offset;  ///< offset of the (out x in) weight block in params_
    std::size_t b_offset;  ///< offset of the bias vector in params_
    std::size_t in;
    std::size_t out;
    Activation act;
  };

  std::vector<std::size_t> sizes_;
  std::vector<LayerView> layers_;
  std::vector<double> params_;
};

}  // namespace glova::nn
