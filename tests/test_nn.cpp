// Tests for the neural-network substrate: activation math, analytic
// gradients against finite differences (the load-bearing property for the
// whole RL stack), Adam convergence, and end-to-end regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "common/state_io.hpp"
#include "counting_new.hpp"
#include "nn/adam.hpp"
#include "nn/lanes.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"

namespace glova::nn {
namespace {

TEST(Activation, ValuesAndDerivatives) {
  EXPECT_DOUBLE_EQ(activate(Activation::Identity, 1.7), 1.7);
  EXPECT_DOUBLE_EQ(activate_grad_from_output(Activation::Identity, 1.7), 1.0);
  EXPECT_DOUBLE_EQ(activate(Activation::ReLU, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::ReLU, 2.0), 2.0);
  EXPECT_EQ(activate(Activation::Tanh, 0.5), 0x1.d9353d7568af3p-2);  // glibc's tanh(0.5)
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

// ---- The tanh kernel against glibc ---------------------------------------

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }
std::uint32_t high_word(double x) { return static_cast<std::uint32_t>(bits_of(x) >> 32); }
/// x with its high word replaced, the low word kept (glibc's SET_HIGH_WORD).
double with_high_word(double x, std::uint32_t high) {
  return std::bit_cast<double>((std::uint64_t{high} << 32) | (bits_of(x) & 0xffffffffu));
}

// s_expm1.c's constants.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep0;
constexpr double kOThreshold = 0x1.62e42fefa39efp9;
constexpr double kHuge = 1.0e300;
constexpr double kQ1 = -0x1.11111111110f4p-5;
constexpr double kQ2 = 0x1.a01a019fe5585p-10;
constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
constexpr double kQ4 = 0x1.0cfca86e65239p-18;
constexpr double kQ5 = -0x1.afdb76e09c32dp-23;

/// glibc 2.36's expm1 (sysdeps/ieee754/dbl-64/s_expm1.c) as its FMA build
/// __expm1_fma computes it, branch for branch.  The operations that build's
/// compiler fused are std::fma here.  Nothing else fuses: GCC contracts
/// a * b + c in C++ wherever the ISA has an FMA instruction, and this file
/// builds for the x86-64 baseline, which has none.
double glibc_expm1_fma(double x) {
  std::uint32_t hx = high_word(x);
  const bool negative = (hx & 0x80000000u) != 0;
  hx &= 0x7fffffffu;
  if (hx >= 0x4043687au) {    // |x| >= 56 ln2
    if (hx >= 0x40862e42u) {  // |x| >= 709.78
      if (hx >= 0x7ff00000u) {
        if (((hx & 0xfffffu) | static_cast<std::uint32_t>(bits_of(x))) != 0) return x + x;
        return negative ? -1.0 : x;
      }
      if (x > kOThreshold) return std::numeric_limits<double>::infinity();
    }
    if (negative) return -1.0;
  }
  double hi = 0.0;
  double lo = 0.0;
  double c = 0.0;
  int k = 0;
  if (hx > 0x3fd62e42u) {    // |x| > 0.5 ln2
    if (hx < 0x3ff0a2b2u) {  // and |x| < 1.5 ln2
      hi = negative ? x + kLn2Hi : x - kLn2Hi;
      lo = negative ? -kLn2Lo : kLn2Lo;
      k = negative ? -1 : 1;
    } else {
      k = static_cast<int>(kInvLn2 * x + (negative ? -0.5 : 0.5));
      const double t = k;
      hi = std::fma(-t, kLn2Hi, x);
      lo = t * kLn2Lo;
    }
    const double reduced = hi - lo;
    c = (hi - reduced) - lo;
    x = reduced;
  } else if (hx < 0x3c900000u) {  // |x| < 2^-54
    const double t = kHuge + x;
    return x - (t - (kHuge + x));
  }
  const double hfx = 0.5 * x;
  const double hxs = x * hfx;
  const double R1 = std::fma(hxs, kQ1, 1.0);
  const double h2 = hxs * hxs;
  const double R2 = std::fma(hxs, kQ3, kQ2);
  const double h4 = h2 * h2;
  const double R3 = std::fma(hxs, kQ5, kQ4);
  const double r1 = std::fma(h4, R3, std::fma(h2, R2, R1));
  const double t = std::fma(-r1, hfx, 3.0);
  double e = hxs * ((r1 - t) / std::fma(-x, t, 6.0));
  if (k == 0) return x - std::fma(x, e, -hxs);
  e = std::fma(x, e - c, -c);
  e -= hxs;
  if (k == -1) return std::fma(0.5, x - e, -0.5);
  if (k == 1) return x < -0.25 ? -2.0 * (e - (x + 0.5)) : std::fma(2.0, x - e, 1.0);
  // 2^k by adding k to the exponent field.
  const auto scale = [k](double y) {
    return with_high_word(y, high_word(y) + (static_cast<std::uint32_t>(k) << 20));
  };
  if (k <= -2 || k > 56) {
    const double y = 1.0 - (e - x);
    return (k == 1024 ? y * 2.0 * 0x1p1023 : scale(y)) - 1.0;
  }
  if (k < 20) {
    const double t_k = with_high_word(1.0, 0x3ff00000u - (0x200000u >> k));  // 1 - 2^-k
    return scale(t_k - (e - x));
  }
  const double t_k = with_high_word(1.0, static_cast<std::uint32_t>(0x3ff - k) << 20);  // 2^-k
  return scale((x - (e + t_k)) + 1.0);
}

/// glibc 2.36's tanh (sysdeps/ieee754/dbl-64/s_tanh.c) over that expm1.
double glibc_tanh(double x) {
  const auto jx = static_cast<std::int32_t>(high_word(x));
  const std::int32_t ix = jx & 0x7fffffff;
  const auto lx = static_cast<std::uint32_t>(bits_of(x));
  if (ix >= 0x7ff00000) return jx >= 0 ? 1.0 / x + 1.0 : 1.0 / x - 1.0;
  double z = 0.0;
  if (ix < 0x40360000) {  // |x| < 22
    if ((static_cast<std::uint32_t>(ix) | lx) == 0) return x;
    if (ix < 0x3c800000) return x * (1.0 + x);  // |x| < 2^-55
    if (ix >= 0x3ff00000) {                      // |x| >= 1
      const double t = glibc_expm1_fma(2.0 * std::fabs(x));
      z = 1.0 - 2.0 / (t + 2.0);
    } else {
      const double t = glibc_expm1_fma(-2.0 * std::fabs(x));
      z = -t / (t + 2.0);
    }
  } else {
    z = 1.0 - 1.0e-300;
  }
  return jx >= 0 ? z : -z;
}

/// The k glibc's expm1 reduces y by: 0 to 0.5 ln2, +-1 to 1.5 ln2, then
/// y / ln2 rounded half away from zero in two roundings.
int expm1_k(double y) {
  const std::uint32_t hx = high_word(y) & 0x7fffffffu;
  if (hx <= 0x3fd62e42u) return 0;
  if (hx < 0x3ff0a2b2u) return y < 0.0 ? -1 : 1;
  return static_cast<int>(kInvLn2 * y + (y < 0.0 ? -0.5 : 0.5));
}

/// The smallest positive double in [lo, hi] where `pred` holds, for a
/// predicate that is false at lo and stays true once it holds.
template <class Pred>
double first_where(double lo, double hi, Pred pred) {
  std::uint64_t a = bits_of(lo);
  std::uint64_t b = bits_of(hi);
  while (b - a > 1) {
    const std::uint64_t mid = a + (b - a) / 2;
    (pred(std::bit_cast<double>(mid)) ? b : a) = mid;
  }
  return std::bit_cast<double>(b);
}

/// Every branch edge of glibc's tanh and expm1 on the |x| axis, with the
/// three doubles either side, both signs: |x| = 2^-55; the |x| at which 2|x|
/// crosses expm1's 0.5 ln2, 1.5 ln2 and 56 ln2 thresholds; |x| = 1; the k
/// transitions -2/-1 and -3/-2 (on -2|x|), 19/20 and 56/57 (on 2|x|); and 22.
std::vector<double> tanh_branch_edges() {
  std::vector<double> edges = {0x1p-55, 0x1.62e43p-3, 0x1.0a2b2p-1, 0x1.3687ap4, 1.0, 22.0};
  edges.push_back(first_where(0.5, 1.0, [](double a) { return expm1_k(-2.0 * a) <= -2; }));
  edges.push_back(first_where(0.5, 1.0, [](double a) { return expm1_k(-2.0 * a) <= -3; }));
  edges.push_back(first_where(1.0, 22.0, [](double a) { return expm1_k(2.0 * a) >= 20; }));
  edges.push_back(first_where(1.0, 22.0, [](double a) { return expm1_k(2.0 * a) >= 57; }));
  std::vector<double> x;
  for (const double edge : edges) {
    double below = edge;
    double above = edge;
    x.push_back(edge);
    for (int step = 0; step < 3; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 100.0);
      x.push_back(below);
      x.push_back(above);
    }
  }
  const std::size_t positive = x.size();
  for (std::size_t i = 0; i < positive; ++i) x.push_back(-x[i]);
  return x;
}

/// Signed zeros, infinities, NaNs, subnormals and the ends of the normals.
std::vector<double> tanh_special_inputs() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0, -0.0, inf, -inf, nan, -nan,
          std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),  // signaling
          0x1p-1074, -0x1p-1074, 0x1.8p-1040, -0x1.8p-1040, 0x0.fffffffffffffp-1022,
          0x1p-1022, -0x1p-1022, std::numeric_limits<double>::max(),
          std::numeric_limits<double>::lowest()};
}

/// The bulk inputs, 2^16 at a time through `check`, 10,485,760 in all:
/// uniform on [-25, 25] and on [-1.5, 1.5], that range scaled by 1e-3,
/// random exponents from 2^-60 to 2^6 (random sign and mantissa), and
/// arbitrary 64-bit patterns.
template <class Check>
void for_each_tanh_chunk(Check check) {
  std::mt19937_64 bits(20250611);
  const auto unit = [&bits] { return static_cast<double>(bits() >> 11) * 0x1p-53; };
  std::vector<double> x(std::size_t{1} << 16);
  for (int kind = 0; kind < 5; ++kind) {
    for (int chunk = 0; chunk < 32; ++chunk) {
      for (double& v : x) {
        switch (kind) {
          case 0: v = -25.0 + 50.0 * unit(); break;
          case 1: v = -1.5 + 3.0 * unit(); break;
          case 2: v = 1e-3 * (-1.5 + 3.0 * unit()); break;
          case 3: {
            const int exponent = static_cast<int>(bits() % 67) - 60;
            v = std::ldexp((bits() & 1) != 0 ? -1.0 - unit() : 1.0 + unit(), exponent);
            break;
          }
          default: v = std::bit_cast<double>(bits()); break;
        }
      }
      check(std::span<const double>(x));
    }
  }
}

/// tanh_lanes over x against `reference`, bit for bit; returns how many
/// values differ and reports the first few.
std::size_t tanh_mismatches(std::span<const double> x, double (*reference)(double)) {
  std::vector<double> y(x.begin(), x.end());
  tanh_lanes(y);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = reference(x[i]);
    if (bits_of(y[i]) == bits_of(want)) continue;
    if (++bad <= 5) {
      ADD_FAILURE() << std::hexfloat << "tanh(" << x[i] << "): kernel " << y[i] << ", reference "
                    << want;
    }
  }
  return bad;
}

// The kernel against the scalar transcription: on every host.  The whole
// blocks and the tail go through tanh_lanes; activate() is the one-lane call.
TEST(Activation, TanhKernelMatchesGlibcTranscription) {
  std::size_t bad = 0;
  std::size_t count = 0;
  for_each_tanh_chunk([&](std::span<const double> x) {
    bad += tanh_mismatches(x, glibc_tanh);
    bad += tanh_mismatches(x.first(13), glibc_tanh);
    count += x.size();
  });
  EXPECT_GE(count, 10'000'000u);
  std::vector<double> edges = tanh_branch_edges();
  for (const double v : tanh_special_inputs()) edges.push_back(v);
  bad += tanh_mismatches(edges, glibc_tanh);
  for (const double v : edges) {
    EXPECT_EQ(bits_of(activate(Activation::Tanh, v)), bits_of(glibc_tanh(v)))
        << std::hexfloat << v;
  }
  EXPECT_EQ(bad, 0u);
}

// The same inputs against libm's tanh where glibc picks __expm1_fma.  A
// tolerance would hide exactly what this pins, so elsewhere it skips.
TEST(Activation, TanhKernelMatchesLibmOnFmaHosts) {
#if defined(__x86_64__) && defined(__GLIBC__)
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "glibc's tanh runs its SSE2 expm1 without FMA and AVX2; the kernel keeps "
                    "the FMA bits, which the transcription test pins";
  }
  const auto libm_tanh = [](double v) { return std::tanh(v); };
  std::size_t bad = 0;
  for_each_tanh_chunk([&](std::span<const double> x) { bad += tanh_mismatches(x, libm_tanh); });
  std::vector<double> edges = tanh_branch_edges();
  for (const double v : tanh_special_inputs()) edges.push_back(v);
  bad += tanh_mismatches(edges, libm_tanh);
  EXPECT_EQ(bad, 0u);
#else
  GTEST_SKIP() << "libm's tanh is glibc's FMA build only on x86-64 glibc hosts";
#endif
}

TEST(Activation, TanhKernelSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> x = {0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
                           0x1p-1074, -0x1.8p-1040, 22.0, -22.0, 700.0};
  tanh_lanes(x);
  EXPECT_EQ(bits_of(x[0]), bits_of(0.0));
  EXPECT_EQ(bits_of(x[1]), bits_of(-0.0));
  EXPECT_EQ(x[2], 1.0);
  EXPECT_EQ(x[3], -1.0);
  EXPECT_TRUE(std::isnan(x[4]));
  EXPECT_EQ(x[5], 0x1p-1074);
  EXPECT_EQ(x[6], -0x1.8p-1040);
  EXPECT_EQ(x[7], 1.0);
  EXPECT_EQ(x[8], -1.0);
  EXPECT_EQ(x[9], 1.0);
  // Odd symmetry, bit for bit, across every edge.
  const std::vector<double> edges = tanh_branch_edges();
  std::vector<double> y = edges;
  tanh_lanes(y);
  const std::size_t half = edges.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_EQ(bits_of(y[i + half]), bits_of(-y[i])) << std::hexfloat << edges[i];
  }
}

// One FNV-1a digest of the kernel over a fixed grid, its edges and the
// subnormals: it must hold in the native and the portable build alike.
TEST(Activation, TanhKernelDigestIsPinned) {
  std::vector<double> x;
  for (int i = -1600; i <= 1600; ++i) x.push_back(i / 64.0);
  for (const double v : tanh_branch_edges()) x.push_back(v);
  for (const double v : {0x1p-1074, -0x1.8p-1040, 0x1p-1022, 1e-300, -1e-20}) x.push_back(v);
  tanh_lanes(x);
  std::uint64_t hash = 1469598103934665603ull;
  for (const double v : x) {
    const std::uint64_t b = bits_of(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (b >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  EXPECT_EQ(hash, 0x02b07a52bc6ba0ddull) << std::hex << "digest 0x" << hash;
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

// ---- Adam's quotients ----------------------------------------------------

/// Adam::step as a plain loop, three divides and a sqrt per parameter, kept
/// verbatim from before the checked reciprocal: Adam must give its bits.
class DividingAdam {
 public:
  explicit DividingAdam(std::size_t n, AdamConfig config = {})
      : config_(config), m_(n, 0.0), v_(n, 0.0) {}

  void set_state(std::size_t t, std::vector<double> m, std::vector<double> v) {
    t_ = t;
    m_ = std::move(m);
    v_ = std::move(v);
  }

  void step(std::span<double> params, std::span<const double> grad) {
    ++t_;
    const double b1 = config_.beta1;
    const double b2 = config_.beta2;
    const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
    for (std::size_t i = 0; i < params.size(); ++i) {
      m_[i] = b1 * m_[i] + (1.0 - b1) * grad[i];
      v_[i] = b2 * v_[i] + (1.0 - b2) * grad[i] * grad[i];
      const double m_hat = m_[i] / bias1;
      const double v_hat = v_[i] / bias2;
      params[i] -= config_.learning_rate * m_hat / (std::sqrt(v_hat) + config_.epsilon);
    }
  }

 private:
  AdamConfig config_;
  std::vector<double> m_;
  std::vector<double> v_;
  std::size_t t_ = 0;
};

/// Equal bits, where every NaN equals every NaN: given two NaN operands x86
/// returns the first one's payload, and a compiler may order the operands
/// of + and * either way.
::testing::AssertionResult same_values(std::span<const double> a, std::span<const double> b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (bits_of(a[i]) != bits_of(b[i])) {
      return ::testing::AssertionFailure() << std::hexfloat << "entry " << i << ": " << a[i]
                                           << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Adam and DividingAdam from the same state, one step on `grad` each with
/// the parameters at zero, so every bit of each update shows.
::testing::AssertionResult steps_agree(Adam& adam, DividingAdam& reference,
                                       std::span<const double> grad) {
  std::vector<double> got(grad.size(), 0.0);
  std::vector<double> want(grad.size(), 0.0);
  adam.step(got, grad);
  reference.step(want, grad);
  return same_values(got, want);
}

// 625 blocks of eight and a tail of three, every bit after every step.  The
// gradients span 1e-300 to 1e3 log-uniformly with both signs, plus exact
// +-0 and subnormals; a few parameters take +-inf and NaN.  Then moments
// loaded through Adam::load: +-0, tiny, subnormal and huge.
TEST(Adam, StepMatchesDividingReference) {
  constexpr std::size_t kParams = 5003;
  constexpr int kSteps = 2000;
  std::mt19937_64 gen(0xADA);
  std::uniform_real_distribution<double> log_magnitude(std::log(1e-300), std::log(1e3));
  std::uniform_int_distribution<int> kind(0, 63);
  const auto draw = [&]() {
    const int k = kind(gen);
    const double sign = (k & 1) != 0 ? -1.0 : 1.0;
    if (k < 4) return sign * 0.0;
    if (k < 6) return sign * 0x1p-1074 * static_cast<double>(gen() % 4096 + 1);
    return sign * std::exp(log_magnitude(gen));
  };
  Adam adam(kParams);
  DividingAdam reference(kParams);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> grad(kParams);
  for (int step = 0; step < kSteps; ++step) {
    for (double& g : grad) g = draw();
    if (step == 100) grad[4000] = inf;
    if (step == 150) grad[4003] = -inf;
    if (step == 200) grad[4010] = std::numeric_limits<double>::quiet_NaN();
    if (step == 250) grad[kParams - 2] = inf;
    ASSERT_TRUE(steps_agree(adam, reference, grad)) << "step " << step;
  }

  // Loaded moments: every lane kind, in the blocks and the tail.
  const std::vector<double> specials = {-0.0, 0.0, 0x1p-950, -0x1p-950, 0x1p-1060, 1e300,
                                        -1e300, 0x1p899, -0x1p-899, 0.25, -3.5};
  std::vector<double> m(kParams);
  std::vector<double> v(kParams);
  for (std::size_t i = 0; i < kParams; ++i) {
    m[i] = specials[i % specials.size()];
    v[i] = std::fabs(specials[(i / specials.size() + i) % specials.size()]);
    if (i % 7 == 0) v[i] = -0.0;
  }
  std::ostringstream text;
  text << "adam 7\n";
  state::write_doubles(text, "m", m);
  state::write_doubles(text, "v", v);
  Adam loaded(kParams);
  std::istringstream in(text.str());
  loaded.load(in);
  DividingAdam loaded_reference(kParams);
  loaded_reference.set_state(7, m, v);
  for (int step = 0; step < 50; ++step) {
    for (double& g : grad) g = step % 2 == 0 ? 0.0 : draw();
    ASSERT_TRUE(steps_agree(loaded, loaded_reference, grad)) << "loaded, step " << step;
  }
}

/// quotient_check() of eight (q, r) lanes at one divisor b; true per lane.
std::array<bool, kLanes> check_lanes(std::span<const double> q, std::span<const double> r,
                                     double b) {
  Lanes qv;
  Lanes rv;
  load(qv, q.data());
  load(rv, r.data());
  LaneInts ok;
  quotient_check(ok, qv, rv, b);
  std::array<bool, kLanes> out{};
  for (std::size_t i = 0; i < kLanes; ++i) out[i] = ok[i] != 0;
  return out;
}

// The remainder test at its bounds: with h = ulp(q) / 2, and half of that
// below a power of two, it rejects r = h b and r = -h- b and accepts the
// doubles just inside.  Then candidates one ulp off either side of the
// quotient, powers of two included, fail, and the quotient passes.
TEST(Adam, QuotientCheckAcceptsExactlyTheQuotient) {
  const std::vector<double> divisors = {1.0 - std::pow(0.9, 1.0),
                                        1.0 - std::pow(0.999, 1.0),
                                        1.0 - std::pow(0.999, 37.0),
                                        0.75,
                                        1.0,
                                        0x1.fffffffffffffp-1,
                                        0x1p-64,
                                        0x1p64,
                                        3.0};
  const std::vector<double> quotients = {1.0, 0x1p-500, 0x1p800, 1.5, 0x1.fffffffffffffp0,
                                         0x1.0000000000001p3, 0.1, 123.456};
  for (const double b : divisors) {
    for (const double q : quotients) {
      const double h = (std::nextafter(q, INFINITY) - q) / 2;
      const double h_below = (q - std::nextafter(q, 0.0)) / 2;
      const std::vector<double> qs(kLanes, q);
      const std::vector<double> r = {h * b,
                                     std::nextafter(h * b, 0.0),
                                     -h_below * b,
                                     std::nextafter(-h_below * b, 0.0),
                                     0.0,
                                     -0.0,
                                     std::nextafter(h * b, INFINITY),
                                     std::nextafter(-h_below * b, -INFINITY)};
      const std::array<bool, kLanes> want = {false, true, false, true, true, true, false, false};
      EXPECT_EQ(check_lanes(qs, r, b), want) << std::hexfloat << "q " << q << ", b " << b;
    }
  }

  std::mt19937_64 gen(0x9107);
  std::uniform_real_distribution<double> log_a(std::log(0x1p-890), std::log(0x1p890));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::size_t powers_of_two = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const double b = trial % 3 == 0 ? 1.0 - std::pow(0.999, 1.0 + trial % 500)
                                    : 0x1p-60 + unit(gen);
    double a = std::exp(log_a(gen));
    if (trial % 2 == 0) {
      // Next to a power of two: a / b within a few ulps of 2^k, either side.
      const double two_k = std::ldexp(1.0, static_cast<int>(gen() % 200) - 100);
      a = two_k * b;
      const double toward = trial % 4 == 0 ? 0.0 : INFINITY;
      for (std::uint64_t s = gen() % 6; s > 0; --s) a = std::nextafter(a, toward);
    }
    const double q = a / b;
    const auto power_of_two = [](double x) { return (bits_of(x) & 0xfffffffffffffull) == 0; };
    powers_of_two += power_of_two(q) || power_of_two(std::nextafter(q, INFINITY)) ||
                     power_of_two(std::nextafter(q, 0.0));
    const std::vector<double> candidates = {q,
                                            std::nextafter(q, INFINITY),
                                            std::nextafter(q, 0.0),
                                            std::nextafter(std::nextafter(q, INFINITY), INFINITY),
                                            std::nextafter(std::nextafter(q, 0.0), 0.0),
                                            q,
                                            std::nextafter(q, 0.0),
                                            std::nextafter(q, INFINITY)};
    std::vector<double> r(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) r[i] = std::fma(-candidates[i], b, a);
    const std::array<bool, kLanes> want = {true, false, false, false, false, true, false, false};
    ASSERT_EQ(check_lanes(candidates, r, b), want) << std::hexfloat << "a " << a << ", b " << b;
  }
  EXPECT_GT(powers_of_two, 1000u);
}

// detail::divide_lanes, the kernel Adam::step runs: ordinary blocks, +-0
// included, go by the reciprocal wherever the build has it, and a block
// with one lane out of range, or an out-of-range divisor, divides.  Both
// give the bits of a / b.
TEST(Adam, OrdinaryQuotientsTakeTheReciprocal) {
  const bool built = detail::reciprocal_division_built();
  std::mt19937_64 gen(0x51DE);
  std::uniform_real_distribution<double> log_a(std::log(0x1p-880), std::log(0x1p880));
  const auto same = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || bits_of(x) == bits_of(y);
  };
  const auto divide = [&](const std::vector<double>& a, double b) {
    std::vector<double> q(kLanes);
    const bool by_reciprocal = detail::divide_lanes(a.data(), b, q.data());
    for (std::size_t i = 0; i < kLanes; ++i) {
      EXPECT_TRUE(same(q[i], a[i] / b)) << std::hexfloat << a[i] << " / " << b;
    }
    return by_reciprocal;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> forced = {0x1p-901, -0x1p-1000, 0x1p-1074, 0x1p900, -1e300, inf,
                                      -inf, std::numeric_limits<double>::quiet_NaN()};
  for (int trial = 0; trial < 2000; ++trial) {
    const double b = 1.0 - std::pow(trial % 2 == 0 ? 0.9 : 0.999, 1.0 + trial);
    std::vector<double> a(kLanes);
    for (double& x : a) x = (gen() & 1) != 0 ? -std::exp(log_a(gen)) : std::exp(log_a(gen));
    a[trial % kLanes] = 0.0;
    a[(trial + 3) % kLanes] = -0.0;
    EXPECT_EQ(divide(a, b), built) << "trial " << trial;
    a[(trial + 5) % kLanes] = forced[trial % forced.size()];
    EXPECT_FALSE(divide(a, b)) << "trial " << trial;
  }
  const std::vector<double> ordinary = {1.0, -2.5, 0.0, -0.0, 1e-3, 3e5, -7e-200, 0x1p800};
  EXPECT_EQ(divide(ordinary, 0x1p-64), built);
  EXPECT_EQ(divide(ordinary, 0x1p64), built);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double b : {0x1p-65, 0x1p65, 0.0, -0.5, inf, nan}) {
    EXPECT_FALSE(divide(ordinary, b)) << b;
  }
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

// reserve() sizes a fresh workspace and scratch for batches of up to n, so
// even the first forward and backward allocate nothing.  The agent calls it
// before the actor's step runs on a pool worker.
TEST(Mlp, ReservedWorkspaceAllocatesNothing) {
  Rng rng(31);
  const Mlp net({14, 64, 64, 64, 14}, Activation::Tanh, Activation::Sigmoid, rng);
  std::vector<double> grad(net.parameter_count(), 0.0);
  Mlp::Workspace ws;
  Mlp::Scratch scratch;
  net.reserve(ws, scratch, 10);
  for (const std::size_t n : {10u, 1u, 7u}) {
    const std::vector<double> x = rng.uniform_vector(net.input_dim() * n, 0.0, 1.0);
    const std::vector<double> dLdy = rng.uniform_vector(net.output_dim() * n, -0.1, 0.1);
    std::vector<double> dx(net.input_dim() * n);
    g_alloc_count.store(0);
    g_alloc_counting.store(true);
    (void)net.forward(x, ws);
    net.backward(ws, scratch, dLdy, grad, dx);
    g_alloc_counting.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u) << "batch " << n;
  }
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
