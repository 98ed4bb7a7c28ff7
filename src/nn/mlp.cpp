#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/state_io.hpp"

namespace glova::nn {

double activate(Activation act, double x) {
  switch (act) {
    case Activation::Identity: return x;
    case Activation::Tanh: return std::tanh(x);
    case Activation::ReLU: return x > 0.0 ? x : 0.0;
    case Activation::Sigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

double activate_grad_from_output(Activation act, double y) {
  switch (act) {
    case Activation::Identity: return 1.0;
    case Activation::Tanh: return 1.0 - y * y;
    case Activation::ReLU: return y > 0.0 ? 1.0 : 0.0;
    case Activation::Sigmoid: return y * (1.0 - y);
  }
  return 1.0;
}

namespace {

/// z[o] = b[o] + sum_i w[o * in + i] * x[i], every sum bias first and then
/// in ascending input order.  Each sum is one dependent add chain, so eight
/// outputs advance together: a tile of products is formed first (contiguous
/// along the weight rows), then added into the eight chains input by input.
void affine(const double* w, const double* b, const double* x, std::size_t in, std::size_t out,
            double* z) {
  constexpr std::size_t kOut = 8;
  constexpr std::size_t kIn = 4;
  std::size_t o = 0;
  for (; o + kOut <= out; o += kOut) {
    double acc[kOut];
    for (std::size_t k = 0; k < kOut; ++k) acc[k] = b[o + k];
    std::size_t i = 0;
    for (; i + kIn <= in; i += kIn) {
      double p[kIn][kOut];
      for (std::size_t k = 0; k < kOut; ++k) {
        for (std::size_t j = 0; j < kIn; ++j) p[j][k] = w[(o + k) * in + i + j] * x[i + j];
      }
      for (std::size_t j = 0; j < kIn; ++j) {
        for (std::size_t k = 0; k < kOut; ++k) acc[k] += p[j][k];
      }
    }
    for (; i < in; ++i) {
      for (std::size_t k = 0; k < kOut; ++k) acc[k] += w[(o + k) * in + i] * x[i];
    }
    for (std::size_t k = 0; k < kOut; ++k) z[o + k] = acc[k];
  }
  for (; o < out; ++o) {
    const double* wo = w + o * in;
    double zo = b[o];
    for (std::size_t i = 0; i < in; ++i) zo += wo[i] * x[i];
    z[o] = zo;
  }
}

void activate_in_place(Activation act, std::span<double> v) {
  if (act == Activation::Identity) return;
  for (double& x : v) x = activate(act, x);
}

/// delta[o] *= f'(pre[o]), with f' taken from the stored output y = f(pre).
void scale_by_activation_grad(Activation act, std::span<const double> y, std::span<double> delta) {
  if (act == Activation::Identity) return;
  for (std::size_t o = 0; o < delta.size(); ++o) delta[o] *= activate_grad_from_output(act, y[o]);
}

}  // namespace

Mlp::Mlp(std::vector<std::size_t> sizes, Activation hidden, Activation output, Rng& rng)
    : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) throw std::invalid_argument("Mlp: need at least input and output layer");
  std::size_t total = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    total += sizes_[l] * sizes_[l + 1] + sizes_[l + 1];
  }
  params_.resize(total);
  layers_.reserve(sizes_.size() - 1);
  std::size_t offset = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const std::size_t in = sizes_[l];
    const std::size_t out = sizes_[l + 1];
    const Activation act = (l + 2 == sizes_.size()) ? output : hidden;
    LayerView view{offset, offset + in * out, in, out, act};
    offset += in * out + out;
    // Xavier/Glorot uniform initialization keeps tanh layers in their linear
    // region at the start of training.
    const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
    for (std::size_t i = 0; i < in * out; ++i) {
      params_[view.w_offset + i] = rng.uniform(-bound, bound);
    }
    for (std::size_t i = 0; i < out; ++i) params_[view.b_offset + i] = 0.0;
    layers_.push_back(view);
  }
}

std::span<const double> Mlp::forward(std::span<const double> x, Workspace& ws) const {
  if (x.size() != input_dim()) throw std::invalid_argument("Mlp::forward: bad input size");
  ws.post.resize(layers_.size() + 1);
  ws.post[0].assign(x.begin(), x.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const LayerView& layer = layers_[l];
    std::vector<double>& y = ws.post[l + 1];
    y.resize(layer.out);
    affine(&params_[layer.w_offset], &params_[layer.b_offset], ws.post[l].data(), layer.in,
           layer.out, y.data());
    activate_in_place(layer.act, y);
  }
  return ws.post.back();
}

void Mlp::backward(Workspace& ws, std::span<const double> dLdy, std::span<double> grad,
                   std::span<double> dLdx) const {
  if (dLdy.size() != output_dim()) throw std::invalid_argument("Mlp::backward: bad dLdy size");
  if (!grad.empty() && grad.size() != params_.size()) {
    throw std::invalid_argument("Mlp::backward: bad grad size");
  }
  if (!dLdx.empty() && dLdx.size() != input_dim()) {
    throw std::invalid_argument("Mlp::backward: bad dLdx size");
  }
  if (ws.post.size() != layers_.size() + 1) {
    throw std::logic_error("Mlp::backward: workspace holds no forward pass of this network");
  }
  ws.delta.assign(dLdy.begin(), dLdy.end());
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const LayerView& layer = layers_[li];
    // delta holds dL/d(post-activation) of this layer; make it dL/d(pre).
    scale_by_activation_grad(layer.act, ws.post[li + 1], ws.delta);
    const double* delta = ws.delta.data();
    const double* input = ws.post[li].data();
    if (!grad.empty()) {
      for (std::size_t o = 0; o < layer.out; ++o) {
        double* gw_row = &grad[layer.w_offset + o * layer.in];
        const double d = delta[o];
        for (std::size_t i = 0; i < layer.in; ++i) gw_row[i] += d * input[i];
        grad[layer.b_offset + o] += d;
      }
    }
    // The first layer's dL/dx is only computed when someone reads it.
    if (li == 0 && dLdx.empty()) break;
    double* prev = dLdx.data();
    if (li > 0) {
      ws.prev_delta.resize(layer.in);
      prev = ws.prev_delta.data();
    }
    std::fill(prev, prev + layer.in, 0.0);
    for (std::size_t o = 0; o < layer.out; ++o) {
      const double* w_row = &params_[layer.w_offset + o * layer.in];
      const double d = delta[o];
      for (std::size_t i = 0; i < layer.in; ++i) prev[i] += w_row[i] * d;
    }
    if (li > 0) ws.delta.swap(ws.prev_delta);
  }
}

void Mlp::save(std::ostream& os) const { state::write_doubles(os, "mlp", params_); }

void Mlp::load(std::istream& is) {
  std::vector<double> params = state::read_doubles(is, "mlp");
  if (params.size() != params_.size()) {
    state::bad("Mlp state size mismatch: network has " + std::to_string(params_.size()) +
               " parameters, state holds " + std::to_string(params.size()));
  }
  params_ = std::move(params);
}

}  // namespace glova::nn
