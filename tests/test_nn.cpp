// Tests for the neural-network substrate: activation math, analytic
// gradients against finite differences (the load-bearing property for the
// whole RL stack), Adam convergence, and end-to-end regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "counting_new.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"

namespace glova::nn {
namespace {

TEST(Activation, ValuesAndDerivatives) {
  EXPECT_DOUBLE_EQ(activate(Activation::Identity, 1.7), 1.7);
  EXPECT_DOUBLE_EQ(activate_grad_from_output(Activation::Identity, 1.7), 1.0);
  EXPECT_DOUBLE_EQ(activate(Activation::ReLU, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::ReLU, 2.0), 2.0);
  EXPECT_NEAR(activate(Activation::Tanh, 0.5), std::tanh(0.5), 1e-15);
  EXPECT_NEAR(activate(Activation::Sigmoid, 0.0), 0.5, 1e-15);
  // Derivative consistency via finite differences.
  for (const Activation act :
       {Activation::Tanh, Activation::Sigmoid, Activation::Identity}) {
    const double x = 0.37;
    const double eps = 1e-6;
    const double fd = (activate(act, x + eps) - activate(act, x - eps)) / (2 * eps);
    EXPECT_NEAR(activate_grad_from_output(act, activate(act, x)), fd, 1e-8);
  }
}

TEST(Mlp, ShapesAndDeterminism) {
  Rng rng(1);
  const Mlp net({3, 8, 8, 2}, Activation::Tanh, Activation::Identity, rng);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 2u);
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_EQ(net.parameter_count(), 3u * 8 + 8 + 8u * 8 + 8 + 8u * 2 + 2);
  const std::vector<double> x = {0.1, -0.2, 0.3};
  Mlp::Workspace a;
  Mlp::Workspace b;
  const std::span<const double> ya = net.forward(x, a);
  EXPECT_TRUE(std::ranges::equal(ya, net.forward(x, b)));
  // A reused workspace gives the same bits as a fresh one.
  EXPECT_TRUE(std::ranges::equal(ya, net.forward(x, b)));
}

TEST(Mlp, BadInputSizeThrows) {
  Rng rng(1);
  const Mlp net({2, 4, 1}, Activation::Tanh, Activation::Identity, rng);
  Mlp::Workspace ws;
  Mlp::Scratch scratch;
  EXPECT_THROW((void)net.forward(std::vector<double>{1.0}, ws), std::invalid_argument);
  EXPECT_THROW((void)net.forward(std::vector<double>{}, ws), std::invalid_argument);
  // backward() needs a forward pass of this network in the workspace.
  std::vector<double> dx(2);
  EXPECT_THROW(net.backward(ws, scratch, std::vector<double>{1.0}, {}, dx), std::logic_error);
  // ... at the batch size of dLdy: a batch of 2 recorded, one sample's dLdy.
  (void)net.forward(std::vector<double>{0.1, 0.2, 0.3, 0.4}, ws);
  EXPECT_THROW(net.backward(ws, scratch, std::vector<double>{1.0}, {}, dx), std::logic_error);
  std::vector<double> dx2(4);
  net.backward(ws, scratch, std::vector<double>{1.0, -1.0}, {}, dx2);
  EXPECT_THROW(net.backward(ws, scratch, std::vector<double>{1.0, -1.0}, {}, dx),
               std::invalid_argument);

  // A workspace recorded by another network of the same depth is refused
  // (it would read past the recorded activations).
  const Mlp narrow({14, 8, 8, 8, 1}, Activation::Tanh, Activation::Identity, rng);
  const Mlp wide({6, 64, 64, 64, 6}, Activation::Tanh, Activation::Sigmoid, rng);
  Mlp::Workspace other;
  (void)narrow.forward(std::vector<double>(14, 0.5), other);
  std::vector<double> grad(wide.parameter_count());
  std::vector<double> wide_dx(6);
  EXPECT_THROW(wide.backward(other, scratch, std::vector<double>(6, 1.0), grad, wide_dx),
               std::logic_error);
}

/// Property sweep: analytic gradients match finite differences across
/// architectures and activation choices.  The last three cases are the
/// critic and actor shapes and a {9, 64, 64, 4} regressor.
struct GradCase {
  std::vector<std::size_t> sizes;
  Activation hidden;
  Activation output;
};

const std::vector<GradCase>& grad_cases() {
  static const std::vector<GradCase> cases = {
      {{2, 5, 1}, Activation::Tanh, Activation::Identity},
      {{3, 6, 6, 2}, Activation::Tanh, Activation::Sigmoid},
      {{4, 8, 8, 8, 4}, Activation::Tanh, Activation::Sigmoid},
      {{5, 7, 3}, Activation::ReLU, Activation::Identity},
      {{1, 4, 4, 1}, Activation::Sigmoid, Activation::Identity},
      {{14, 64, 64, 64, 1}, Activation::Tanh, Activation::Identity},
      {{6, 64, 64, 64, 6}, Activation::Tanh, Activation::Sigmoid},
      {{9, 64, 64, 4}, Activation::Tanh, Activation::Identity},
  };
  return cases;
}

class MlpGradient : public ::testing::TestWithParam<int> {};

TEST_P(MlpGradient, MatchesFiniteDifferences) {
  const GradCase& c = grad_cases()[GetParam() % grad_cases().size()];
  Rng rng(17 + GetParam());
  Mlp net(c.sizes, c.hidden, c.output, rng);
  const std::vector<double> x = rng.uniform_vector(c.sizes.front(), -0.9, 0.9);
  const std::vector<double> dLdy = rng.uniform_vector(c.sizes.back(), -1.0, 1.0);

  Mlp::Workspace ws;
  Mlp::Scratch scratch;
  (void)net.forward(x, ws);
  std::vector<double> grad(net.parameter_count(), 0.0);
  std::vector<double> dx(x.size());
  net.backward(ws, scratch, dLdy, grad, dx);

  Mlp::Workspace probe;
  Mlp::Workspace probe_down;
  const auto loss_at = [&](void) {
    const auto y = net.forward(x, probe);
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) l += dLdy[i] * y[i];
    return l;
  };

  // Parameter gradients (spot-check a deterministic subset for speed).
  const double eps = 1e-6;
  auto params = net.parameters();
  for (std::size_t i = 0; i < net.parameter_count(); i += std::max<std::size_t>(1, net.parameter_count() / 25)) {
    const double saved = params[i];
    params[i] = saved + eps;
    const double up = loss_at();
    params[i] = saved - eps;
    const double down = loss_at();
    params[i] = saved;
    EXPECT_NEAR(grad[i], (up - down) / (2 * eps), 1e-5) << "param " << i;
  }

  // Input gradients.
  std::vector<double> x_mut = x;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double saved = x_mut[i];
    x_mut[i] = saved + eps;
    const auto yu = net.forward(x_mut, probe);
    x_mut[i] = saved - eps;
    const auto yd = net.forward(x_mut, probe_down);
    x_mut[i] = saved;
    double fd = 0.0;
    for (std::size_t o = 0; o < yu.size(); ++o) fd += dLdy[o] * (yu[o] - yd[o]) / (2 * eps);
    EXPECT_NEAR(dx[i], fd, 1e-5) << "input " << i;
  }

  // The frozen-network input gradient (no parameter accumulation) is the
  // same computation as backward's dx, bit for bit, and skipping dx leaves
  // the parameter gradients unchanged.
  std::vector<double> dx2(x.size());
  net.backward(ws, scratch, dLdy, {}, dx2);
  EXPECT_EQ(dx, dx2);
  std::vector<double> grad2(net.parameter_count(), 0.0);
  net.backward(ws, scratch, dLdy, grad2, {});
  EXPECT_EQ(grad, grad2);
}

/// Bitwise equality of two double sequences (distinguishes -0.0 and NaNs).
::testing::AssertionResult same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "sizes differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return ::testing::AssertionFailure() << "entry " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// One batch of n gives the bits of n single-sample calls in sample order:
// outputs, the accumulated parameter gradient and each sample's dL/dx.  The
// batch sizes cover a lone sample, partial and full lane vectors and more
// than one pass over the weights.
TEST_P(MlpGradient, BatchMatchesPerSampleCalls) {
  const GradCase& c = grad_cases()[GetParam() % grad_cases().size()];
  Rng rng(101 + GetParam());
  const Mlp net(c.sizes, c.hidden, c.output, rng);
  const std::size_t in = net.input_dim();
  const std::size_t out = net.output_dim();
  const std::vector<double> grad0 = rng.uniform_vector(net.parameter_count(), -0.1, 0.1);
  Mlp::Workspace batch_ws;
  Mlp::Workspace one_ws;
  Mlp::Scratch scratch;
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 10u, 17u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const std::vector<double> x = rng.uniform_vector(in * n, -1.5, 1.5);  // lane-major
    const std::vector<double> dLdy = rng.uniform_vector(out * n, -1.0, 1.0);
    const std::span<const double> y = net.forward(x, batch_ws);
    ASSERT_EQ(y.size(), out * n);
    const std::vector<double> y_batch(y.begin(), y.end());
    std::vector<double> grad_batch = grad0;
    std::vector<double> dx_batch(in * n);
    net.backward(batch_ws, scratch, dLdy, grad_batch, dx_batch);
    std::vector<double> dx_frozen(in * n);
    net.backward(batch_ws, scratch, dLdy, {}, dx_frozen);
    EXPECT_TRUE(same_bits(dx_frozen, dx_batch));

    std::vector<double> grad_one = grad0;
    std::vector<double> xs(in);
    std::vector<double> dys(out);
    std::vector<double> dxs(in);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t j = 0; j < in; ++j) xs[j] = x[j * n + s];
      for (std::size_t o = 0; o < out; ++o) dys[o] = dLdy[o * n + s];
      const std::span<const double> ys = net.forward(xs, one_ws);
      for (std::size_t o = 0; o < out; ++o) {
        EXPECT_TRUE(same_bits(std::span(&ys[o], 1), std::span(&y_batch[o * n + s], 1)))
            << "output " << o << " of sample " << s;
      }
      net.backward(one_ws, scratch, dys, grad_one, dxs);
      for (std::size_t j = 0; j < in; ++j) {
        EXPECT_TRUE(same_bits(std::span(&dxs[j], 1), std::span(&dx_batch[j * n + s], 1)))
            << "dL/dx " << j << " of sample " << s;
      }
    }
    EXPECT_TRUE(same_bits(grad_batch, grad_one));
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, MlpGradient, ::testing::Range(0, 16));

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (p - 3)^2 elementwise.
  std::vector<double> params(4, 0.0);
  Adam adam(4, AdamConfig{0.05, 0.9, 0.999, 1e-8});
  for (int step = 0; step < 500; ++step) {
    std::vector<double> grad(4);
    for (std::size_t i = 0; i < 4; ++i) grad[i] = 2.0 * (params[i] - 3.0);
    adam.step(params, grad);
  }
  for (const double p : params) EXPECT_NEAR(p, 3.0, 1e-2);
  EXPECT_EQ(adam.step_count(), 500u);
}

TEST(Adam, SizeMismatchThrows) {
  Adam adam(3);
  std::vector<double> params(3, 0.0);
  EXPECT_THROW(adam.step(params, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Loss, MseAndGradient) {
  const std::vector<double> pred = {1.0, 2.0};
  const std::vector<double> target = {0.0, 4.0};
  EXPECT_DOUBLE_EQ(mse(pred, target), 0.5 * (0.5 * 1.0 + 0.5 * 4.0));
  const auto g = mse_grad(pred, target);
  EXPECT_DOUBLE_EQ(g[0], 0.5);
  EXPECT_DOUBLE_EQ(g[1], -1.0);
  EXPECT_DOUBLE_EQ(mse(2.0, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(mse_grad_scalar(2.0, 3.0), -1.0);
}

TEST(Serialization, MlpSaveLoadRoundTripsParameters) {
  Rng rng(41);
  Mlp net({3, 8, 2}, Activation::Tanh, Activation::Identity, rng);
  std::ostringstream saved;
  net.save(saved);

  Rng rng2(99);  // different init: load must overwrite every parameter
  Mlp restored({3, 8, 2}, Activation::Tanh, Activation::Identity, rng2);
  std::istringstream in(saved.str());
  restored.load(in);
  ASSERT_EQ(restored.parameter_count(), net.parameter_count());
  for (std::size_t i = 0; i < net.parameter_count(); ++i) {
    EXPECT_EQ(restored.parameters()[i], net.parameters()[i]) << "parameter " << i;
  }
  // Bit-identical parameters mean bit-identical inference.
  const std::vector<double> x = {0.1, -0.7, 2.5};
  Mlp::Workspace a;
  Mlp::Workspace b;
  EXPECT_TRUE(std::ranges::equal(restored.forward(x, a), net.forward(x, b)));

  // Save -> load -> save is a byte fixed point.
  std::ostringstream resaved;
  restored.save(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
}

TEST(Serialization, MlpLoadRejectsMismatchedShape) {
  Rng rng(41);
  Mlp small({2, 4, 1}, Activation::Tanh, Activation::Identity, rng);
  Mlp big({3, 8, 2}, Activation::Tanh, Activation::Identity, rng);
  std::ostringstream saved;
  small.save(saved);
  std::istringstream in(saved.str());
  try {
    big.load(in);
    FAIL() << "load() must reject a parameter-count mismatch";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos) << e.what();
  }
}

TEST(Serialization, AdamSaveLoadRoundTripsMoments) {
  Rng rng(7);
  Mlp net({2, 6, 1}, Activation::Tanh, Activation::Identity, rng);
  Adam adam(net.parameter_count());
  Mlp::Workspace ws;
  Mlp::Scratch scratch;
  // A few real steps so the moments and timestep are non-trivial.
  for (int step = 0; step < 5; ++step) {
    std::vector<double> grad(net.parameter_count(), 0.0);
    const auto y = net.forward(std::vector<double>{0.3, -0.9}, ws);
    const std::vector<double> dLdy = {y[0] - 1.0};
    net.backward(ws, scratch, dLdy, grad, {});
    adam.step(net.parameters(), grad);
  }
  std::ostringstream saved;
  adam.save(saved);

  Adam restored(net.parameter_count());
  std::istringstream in(saved.str());
  restored.load(in);
  std::ostringstream resaved;
  restored.save(resaved);
  EXPECT_EQ(resaved.str(), saved.str());  // full state: t, m, v

  // The restored optimizer continues exactly like the original: one more
  // identical step must produce identical parameters.
  std::vector<double> params_a(net.parameters().begin(), net.parameters().end());
  std::vector<double> params_b = params_a;
  std::vector<double> grad(net.parameter_count(), 0.01);
  adam.step(params_a, grad);
  restored.step(params_b, grad);
  EXPECT_EQ(params_a, params_b);
}

TEST(Serialization, AdamLoadRejectsMismatchedCount) {
  Adam small(4);
  std::ostringstream saved;
  small.save(saved);
  Adam big(9);
  std::istringstream in(saved.str());
  try {
    big.load(in);
    FAIL() << "load() must reject a moment-length mismatch";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos) << e.what();
  }
}

TEST(Mlp, WarmWorkspaceTrainingStepAllocatesNothing) {
  Rng rng(29);
  Mlp net({14, 64, 64, 64, 1}, Activation::Tanh, Activation::Identity, rng);
  Adam adam(net.parameter_count());
  Mlp::Workspace ws;
  Mlp::Scratch scratch;
  std::vector<double> grad(net.parameter_count());
  std::vector<double> dx(net.input_dim());
  const std::vector<double> x = rng.uniform_vector(net.input_dim(), 0.0, 1.0);
  const std::vector<double> dLdy = {0.25};
  // A replay batch of 10 (lane-major) through the same workspace.
  const std::vector<double> xb = rng.uniform_vector(net.input_dim() * 10, 0.0, 1.0);
  const std::vector<double> dLdyb(10, 0.025);
  std::vector<double> dxb(net.input_dim() * 10);
  const auto step = [&](std::span<const double> in, std::span<const double> dy,
                        std::span<double> dxs) {
    std::fill(grad.begin(), grad.end(), 0.0);
    (void)net.forward(in, ws);
    net.backward(ws, scratch, dy, grad, dxs);
    adam.step(net.parameters(), grad);
  };
  step(xb, dLdyb, dxb);  // sizes the workspace and scratch to the batch
  g_alloc_count.store(0);
  g_alloc_counting.store(true);
  for (int i = 0; i < 10; ++i) {
    step(x, dLdy, dx);
    step(xb, dLdyb, dxb);
  }
  g_alloc_counting.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
  // The counter is live: a fresh workspace does allocate.
  g_alloc_counting.store(true);
  Mlp::Workspace fresh;
  (void)net.forward(x, fresh);
  g_alloc_counting.store(false);
  EXPECT_GT(g_alloc_count.load(), 0u);
}

TEST(Training, LearnsOneDimensionalRegression) {
  // Fit y = sin(3x) on a fixed grid (full-batch); checks the complete
  // forward/backward/Adam loop end to end.
  Rng rng(23);
  Mlp net({1, 24, 24, 1}, Activation::Tanh, Activation::Identity, rng);
  Adam adam(net.parameter_count(), AdamConfig{5e-3, 0.9, 0.999, 1e-8});
  Mlp::Workspace ws;
  Mlp::Scratch scratch;
  constexpr int kGrid = 64;
  for (int epoch = 0; epoch < 1500; ++epoch) {
    std::vector<double> grad(net.parameter_count(), 0.0);
    for (int i = 0; i < kGrid; ++i) {
      const double x = -1.0 + 2.0 * i / (kGrid - 1);
      const double target = std::sin(3.0 * x);
      const auto y = net.forward(std::vector<double>{x}, ws);
      const std::vector<double> dLdy = {mse_grad_scalar(y[0], target) / kGrid};
      net.backward(ws, scratch, dLdy, grad, {});
    }
    adam.step(net.parameters(), grad);
  }
  double worst = 0.0;
  for (double x = -1.0; x <= 1.0; x += 0.05) {
    const double y = net.forward(std::vector<double>{x}, ws)[0];
    worst = std::max(worst, std::abs(y - std::sin(3.0 * x)));
  }
  EXPECT_LT(worst, 0.15);
}

}  // namespace
}  // namespace glova::nn
