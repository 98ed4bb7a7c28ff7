// Minimal fully-connected network with reverse-mode gradients.
//
// The paper's actor and critic are both "4-layer neural networks"
// (Sec. IV-A).  This implementation keeps all parameters in one flat vector
// so optimizers (nn::Adam) and parameter copies (ensemble base models) are
// trivial, and backward() can return input gradients so the actor can be
// trained through the frozen critic (Algorithm 1's L_A).
//
// forward() and backward() take a batch of n samples and run it through each
// layer in one pass over the weights; a single sample is the batch n = 1.
//
// Bit-identity contract (docs/architecture.md#nn-layer): each output's
// pre-activation is one sum, bias first, then ascending input index; each
// activation is evaluated once and backward() takes its derivative from the
// stored value; parameter gradients accumulate in sample order.  A batch of n
// therefore gives the same bits as n single-sample calls in sample order.
// tanh is tanh_lanes(), a lane-wise transcription of glibc's tanh that gives
// its bits on every x86-64 host, so no tanh depends on the host's libm.
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
/// tanh of every element, in place: a lane-wise transcription of glibc's
/// tanh over its FMA expm1, so each value has the bits glibc's tanh gives on
/// an x86-64 host with FMA and AVX2, on every x86-64 host and in both
/// builds.  The NN layer's one tanh: activate() and forward() call it.
void tanh_lanes(std::span<double> x);
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

  /// What forward() records for backward(): the batch and every layer's
  /// activations.  Buffers are sized on first use to the batch, so a
  /// workspace and a Scratch reused across calls make forward and backward
  /// allocation-free.  Owned by whoever trains or queries the network; any
  /// network of the same shape may use it.
  struct Workspace {
    std::vector<std::size_t> sizes;  ///< layer widths of the network that recorded the pass
    std::size_t batch = 0;           ///< n of the recorded pass
    std::size_t stride = 0;          ///< lanes per unit: n rounded up to the kernels' vector width
    /// post[0] is the input, post[l + 1] layer l's output; sample s of unit
    /// u sits at [u * stride + s], and lanes n..stride-1 are zero.
    std::vector<std::vector<double>> post;
    std::vector<double> out;  ///< the output, lane-major with stride n (forward's result)
  };

  /// backward()'s working buffers, sized on first use to the widest layer
  /// and the batch.  One serves any number of workspaces and networks, so an
  /// owner of several recorded passes keeps a single one.
  struct Scratch {
    std::vector<double> delta;  ///< dL/d(activation) of the layer being walked
    std::vector<double> other;  ///< that layer's input sample-major, then dL/d(its input)
  };

  /// Forward pass of a batch of n = x.size() / input_dim() samples that
  /// records every layer's activations in `ws`.  Batches are lane-major:
  /// coordinate j of sample s is x[j * n + s], so one sample is a plain
  /// vector.  Returns the n outputs in the same layout, a view into `ws`
  /// valid until its next forward().
  std::span<const double> forward(std::span<const double> x, Workspace& ws) const;

  /// Sizes `ws` and `scratch` for batches of up to n samples, so forward()
  /// and backward() at those sizes allocate nothing.  An owner that runs
  /// them on pool threads calls this first on its own thread: the memory
  /// then comes from its allocator arena, not a worker's.
  void reserve(Workspace& ws, Scratch& scratch, std::size_t n) const;

  /// Backpropagate `dLdy` (gradient of the loss w.r.t. the network outputs,
  /// lane-major like forward()'s result) through the activations the last
  /// forward() recorded in `ws`.  Parameter gradients of all n samples are
  /// *accumulated* into `grad` (parameter_count() entries), in sample
  /// order; dL/dx is *written* to `dLdx` (input_dim() * n entries,
  /// lane-major).  An empty span skips that output: no `grad` is the
  /// frozen-network input gradient, no `dLdx` skips the first layer's
  /// input-gradient product.  Throws std::logic_error when `ws` holds no
  /// forward pass of a network of this shape at this batch size.
  void backward(const Workspace& ws, Scratch& scratch, std::span<const double> dLdy,
                std::span<double> grad, std::span<double> dLdx) const;

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
