#include "nn/mlp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/state_io.hpp"
#include "nn/lanes.hpp"

namespace glova::nn {

double activate(Activation act, double x) {
  switch (act) {
    case Activation::Identity: return x;
    case Activation::Tanh: tanh_lanes(std::span<double>(&x, 1)); return x;
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

// Batched kernels.  forward() keeps a layer's activations lane-major: row
// u holds unit u of every sample, `stride` lanes long, and the affine kernel
// runs whole rows of lanes as GCC/Clang vector-extension values, so every
// sample of a batch goes through each weight while it is in a register.  A
// row's lanes past the batch are zero.  Every kernel gives each sample the
// exact operation sequence of the single-sample loops it replaced: samples
// never mix.  The vector types and their helpers come from nn/lanes.hpp.

constexpr std::size_t kHalf = kLanes / 2;  ///< the stride is a multiple of this
using Half = Vec<kHalf>;
static_assert(sizeof(Half) == kHalf * sizeof(double));

std::size_t lane_stride(std::size_t n) { return (n + kHalf - 1) / kHalf * kHalf; }

template <class V>
void splat(V& v, double x) {
  double lanes[sizeof v / sizeof x] = {};
  std::fill_n(lanes, sizeof v / sizeof x, x);
  load(v, lanes);
}

/// C full lane vectors and then H half ones: the lanes one affine call
/// keeps in registers.
template <std::size_t C, std::size_t H>
struct LaneGroup {
  std::array<Lanes, C> full;
  std::array<Half, H> half;

  void load_from(const double* p) {
    for (std::size_t c = 0; c < C; ++c) load(full[c], p + c * kLanes);
    for (std::size_t h = 0; h < H; ++h) load(half[h], p + C * kLanes + h * kHalf);
  }
  void splat_of(double v) {
    for (Lanes& l : full) splat(l, v);
    for (Half& l : half) splat(l, v);
  }
  void store_to(double* p) const {
    for (std::size_t c = 0; c < C; ++c) store(p + c * kLanes, full[c]);
    for (std::size_t h = 0; h < H; ++h) store(p + C * kLanes + h * kHalf, half[h]);
  }
  /// this += w * x, lane by lane.
  void add_product(double w, const LaneGroup& x) {
    for (std::size_t c = 0; c < C; ++c) full[c] += w * x.full[c];
    for (std::size_t h = 0; h < H; ++h) half[h] += w * x.half[h];
  }
};

/// z = b + W x for outputs [o, o + K) on the lanes of group G from lane l0:
/// each lane's sum starts at the bias and adds the inputs in ascending order.
template <std::size_t K, class G>
void affine_rows(const double* w, const double* b, const double* x, std::size_t in,
                 std::size_t stride, std::size_t o, std::size_t l0, double* z) {
  G acc[K] = {};
  for (std::size_t k = 0; k < K; ++k) acc[k].splat_of(b[o + k]);
  for (std::size_t i = 0; i < in; ++i) {
    G xi = {};
    xi.load_from(x + i * stride + l0);
    for (std::size_t k = 0; k < K; ++k) acc[k].add_product(w[(o + k) * in + i], xi);
  }
  for (std::size_t k = 0; k < K; ++k) acc[k].store_to(z + (o + k) * stride + l0);
}

/// Every output on the lanes of group G from lane l0: eight outputs at a
/// time (enough independent sums to hide the add latency), then one.
template <class G>
void affine_lanes(const double* w, const double* b, const double* x, std::size_t in,
                  std::size_t out, std::size_t stride, std::size_t l0, double* z) {
  constexpr std::size_t kRows = 8;
  std::size_t o = 0;
  for (; o + kRows <= out; o += kRows) affine_rows<kRows, G>(w, b, x, in, stride, o, l0, z);
  for (; o < out; ++o) affine_rows<1, G>(w, b, x, in, stride, o, l0, z);
}

/// One layer's pre-activations z = b + W x for every lane: one pass over the
/// weights for each 16 lanes, so a batch of up to 16 samples makes one pass.
void affine(const double* w, const double* b, const double* x, std::size_t in, std::size_t out,
            std::size_t stride, double* z) {
  std::size_t l0 = 0;
  for (; l0 + 2 * kLanes <= stride; l0 += 2 * kLanes) {
    affine_lanes<LaneGroup<2, 0>>(w, b, x, in, out, stride, l0, z);
  }
  switch ((stride - l0) / kHalf) {
    case 3: affine_lanes<LaneGroup<1, 1>>(w, b, x, in, out, stride, l0, z); break;
    case 2: affine_lanes<LaneGroup<1, 0>>(w, b, x, in, out, stride, l0, z); break;
    case 1: affine_lanes<LaneGroup<0, 1>>(w, b, x, in, out, stride, l0, z); break;
    default: break;
  }
}

// backward() keeps dL/d(activation) sample-major (sample s of unit u at
// [s * width + u]): a weight row then vectorizes along its inputs for both
// products, with no padding lanes, and one load of a weight segment serves
// several samples.

/// Weight gradients of rows [o, o + B), columns [i, i + W): each element
/// adds its n terms d_s * x_s[i] in sample order while it stays in a
/// register.  `delta` points at unit o of sample 0 (row length `out`);
/// `rows` holds the layer input sample-major (x_s = rows + s * in).
template <std::size_t B, std::size_t W>
void weight_grad_chunk(const double* delta, const double* rows, std::size_t in, std::size_t out,
                       std::size_t n, std::size_t i, double* g) {
  Vec<W> acc[B] = {};
  for (std::size_t b = 0; b < B; ++b) load(acc[b], g + b * in + i);
  for (std::size_t s = 0; s < n; ++s) {
    Vec<W> xs = {};
    load(xs, rows + s * in + i);
    for (std::size_t b = 0; b < B; ++b) acc[b] += delta[s * out + b] * xs;
  }
  for (std::size_t b = 0; b < B; ++b) store(g + b * in + i, acc[b]);
}

/// Weight and bias gradients of rows [o, o + B) over the n samples.
template <std::size_t B>
void weight_grad_rows(const double* delta, const double* rows, std::size_t in, std::size_t out,
                      std::size_t n, double* g, double* gb) {
  std::size_t i = 0;
  for (; i + kLanes <= in; i += kLanes) weight_grad_chunk<B, kLanes>(delta, rows, in, out, n, i, g);
  for (; i + kHalf <= in; i += kHalf) weight_grad_chunk<B, kHalf>(delta, rows, in, out, n, i, g);
  for (; i < in; ++i) {
    double acc[B] = {};
    for (std::size_t b = 0; b < B; ++b) acc[b] = g[b * in + i];
    for (std::size_t s = 0; s < n; ++s) {
      const double xs = rows[s * in + i];
      for (std::size_t b = 0; b < B; ++b) acc[b] += delta[s * out + b] * xs;
    }
    for (std::size_t b = 0; b < B; ++b) g[b * in + i] = acc[b];
  }
  for (std::size_t b = 0; b < B; ++b) {
    double acc = gb[b];
    for (std::size_t s = 0; s < n; ++s) acc += delta[s * out + b];
    gb[b] = acc;
  }
}

/// Accumulates the n samples' weight and bias gradients of one layer from
/// dL/d(pre-activation) and the layer input, both sample-major.  Eight rows
/// go together, so even a narrow layer has enough independent sums to hide
/// the add latency.
void weight_grad(const double* delta, const double* rows, std::size_t in, std::size_t out,
                 std::size_t n, double* gw, double* gb) {
  constexpr std::size_t kRows = 8;
  std::size_t o = 0;
  for (; o + kRows <= out; o += kRows) {
    weight_grad_rows<kRows>(delta + o, rows, in, out, n, gw + o * in, gb + o);
  }
  for (; o < out; ++o) weight_grad_rows<1>(delta + o, rows, in, out, n, gw + o * in, gb + o);
}

/// dL/dx of S samples at inputs [i, i + R * W): each starts at 0.0 and adds
/// the outputs in ascending order, and each weight-row segment is loaded
/// once for all S samples.  `delta` (row length `out`) and `dx` (row length
/// `in`) point at the first of the S samples.
template <std::size_t S, std::size_t R, std::size_t W>
void input_grad_chunk(const double* w, const double* delta, std::size_t in, std::size_t out,
                      std::size_t i, double* dx) {
  Vec<W> acc[S][R] = {};
  for (std::size_t o = 0; o < out; ++o) {
    Vec<W> wv[R] = {};
    for (std::size_t r = 0; r < R; ++r) load(wv[r], w + o * in + i + r * W);
    for (std::size_t s = 0; s < S; ++s) {
      const double d = delta[s * out + o];
      for (std::size_t r = 0; r < R; ++r) acc[s][r] += wv[r] * d;
    }
  }
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t r = 0; r < R; ++r) store(dx + s * in + i + r * W, acc[s][r]);
  }
}

/// dL/dx of S samples over every input: the row splits into blocks of four
/// lane vectors, then single vectors, a half vector and scalars.
template <std::size_t S>
void input_grad_samples(const double* w, const double* delta, std::size_t in, std::size_t out,
                        double* dx) {
  std::size_t i = 0;
  for (; i + 4 * kLanes <= in; i += 4 * kLanes) {
    input_grad_chunk<S, 4, kLanes>(w, delta, in, out, i, dx);
  }
  for (; i + kLanes <= in; i += kLanes) input_grad_chunk<S, 1, kLanes>(w, delta, in, out, i, dx);
  for (; i + kHalf <= in; i += kHalf) input_grad_chunk<S, 1, kHalf>(w, delta, in, out, i, dx);
  for (; i < in; ++i) {
    double acc[S] = {};
    for (std::size_t o = 0; o < out; ++o) {
      const double wo = w[o * in + i];
      for (std::size_t s = 0; s < S; ++s) acc[s] += wo * delta[s * out + o];
    }
    for (std::size_t s = 0; s < S; ++s) dx[s * in + i] = acc[s];
  }
}

/// dL/dx = W^T delta for n samples, sample-major, four samples at a time.
void input_grad(const double* w, const double* delta, std::size_t in, std::size_t out,
                std::size_t n, double* dx) {
  std::size_t s = 0;
  for (; s + 4 <= n; s += 4) input_grad_samples<4>(w, delta + s * out, in, out, dx + s * in);
  switch (n - s) {
    case 3: input_grad_samples<3>(w, delta + s * out, in, out, dx + s * in); break;
    case 2: input_grad_samples<2>(w, delta + s * out, in, out, dx + s * in); break;
    case 1: input_grad_samples<1>(w, delta + s * out, in, out, dx + s * in); break;
    default: break;
  }
}

/// delta *= f'(pre) for n samples (delta sample-major, row length `units`),
/// with f' taken from the stored lane-major output y = f(pre).
void scale_by_activation_grad(Activation act, const double* y, std::size_t units, std::size_t n,
                              std::size_t stride, double* delta) {
  if (act == Activation::Identity) return;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t u = 0; u < units; ++u) {
      delta[s * units + u] *= activate_grad_from_output(act, y[u * stride + s]);
    }
  }
}

/// out[c * rows + r] = v[r * ld + c] for r < rows, c < cols: the transpose
/// of a rows x cols block whose rows start `ld` apart.
void transpose(const double* v, std::size_t rows, std::size_t cols, std::size_t ld, double* out) {
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) out[c * rows + r] = v[r * ld + c];
  }
}

// The tanh kernel: glibc 2.36's tanh (s_tanh.c) over the FMA build of its
// expm1 (s_expm1.c as __expm1_fma, which glibc's ifunc picks when FMA and
// AVX2 are usable), transcribed lane by lane.  Every lane runs every branch
// and selects its own result.  The operations glibc's compiler fused are
// explicit std::fma.  Nothing else fuses: the native build compiles this TU
// with -ffp-contract=off, and the portable build's x86-64 baseline ISA has
// no FMA instruction.  So each lane gets the bits of glibc's tanh on such a
// host, on any x86-64 host (docs/architecture.md#the-tanh-kernel).

// s_expm1.c's constants.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep0;
constexpr double kQ1 = -0x1.11111111110f4p-5;
constexpr double kQ2 = 0x1.a01a019fe5585p-10;
constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
constexpr double kQ4 = 0x1.0cfca86e65239p-18;
constexpr double kQ5 = -0x1.afdb76e09c32dp-23;

/// expm1 of each lane, for the arguments tanh passes it: y in [2, 44) or
/// (-2, -2^-54].  That leaves out glibc's tiny, huge and k = 1 branches.
void expm1_lanes(Lanes& y) {
  const Lanes zero = {};
  const LaneInts zeros = {};
  const Lanes ay = (Lanes)((LaneInts)y & INT64_MAX);
  // y = k ln2 + r, r = hi - lo, c the rounding error of that difference.
  // glibc picks k by the high word of |y|: 0 to 0x3fd62e42 (about ln2 / 2),
  // -1 below 0x3ff0a2b2 (about 1.5 ln2; only a negative y gets there), else
  // (int)(y / ln2 +- 0.5), the product and the sum rounded apart.
  Lanes w = kInvLn2 * y;
  w += y < zero ? zero - 0.5 : zero + 0.5;
  LaneInts k = __builtin_convertvector(w, LaneInts);
  k = ay < 0x1.0a2b2p0 ? zeros - 1 : k;
  k = ay < 0x1.62e43p-2 ? zeros : k;
  const Lanes kd = __builtin_convertvector(k, Lanes);
  // At k = 0 and -1 this is glibc's hi = y and y + ln2_hi: the product is exact.
  Lanes hi;
  fma_lanes(hi, -kd, kLn2Hi, y);
  const Lanes lo = kd * kLn2Lo;
  const Lanes r = hi - lo;
  const Lanes c = (hi - r) - lo;
  const Lanes hfx = 0.5 * r;
  const Lanes hxs = r * hfx;
  const Lanes h2 = hxs * hxs;
  const Lanes h4 = h2 * h2;
  Lanes r1;
  Lanes r2;
  Lanes r3;
  fma_lanes(r1, hxs, kQ1, 1.0);
  fma_lanes(r2, hxs, kQ3, kQ2);
  fma_lanes(r3, hxs, kQ5, kQ4);
  fma_lanes(r1, h2, r2, r1);
  fma_lanes(r1, h4, r3, r1);
  Lanes t;
  Lanes d;
  fma_lanes(t, -r1, hfx, 3.0);
  fma_lanes(d, -r, t, 6.0);
  const Lanes e = hxs * ((r1 - t) / d);
  // k = 0: r - (r e - hxs).
  Lanes res0;
  fma_lanes(res0, r, e, -hxs);
  res0 = r - res0;
  // Otherwise e becomes r (e - c) - c - hxs, and k picks the form.
  Lanes ek;
  fma_lanes(ek, r, e - c, -c);
  ek -= hxs;
  Lanes res_m1;  // k = -1
  fma_lanes(res_m1, 0.5, r - ek, -0.5);
  // glibc scales by adding k to the exponent field; these results are
  // normal, so that is the exact product by 2^k.
  const Lanes two_k = (Lanes)((k + 1023) << 52);
  const Lanes two_mk = (Lanes)((1023 - k) << 52);
  const Lanes res_far = (1.0 - (ek - r)) * two_k - 1.0;         // k <= -2 or k > 56
  const Lanes res_low = ((1.0 - two_mk) - (ek - r)) * two_k;    // 2 <= k < 20
  const Lanes res_high = ((r - (ek + two_mk)) + 1.0) * two_k;  // 20 <= k <= 56
  y = k < 20 ? res_low : res_high;
  y = k <= -2 || k > 56 ? res_far : y;
  y = k == -1 ? res_m1 : y;
  y = k == 0 ? res0 : y;
}

/// tanh of each lane.  glibc: |x| < 2^-55 (and +-0) gives x (1 + x);
/// |x| >= 22 gives +-1, and so do +-inf through 1 / x +- 1, which turns a
/// NaN into itself quieted, as x + x does.  Between, z = 1 - 2 / (t + 2)
/// with t = expm1(2|x|) for |x| >= 1, z = -t / (t + 2) with
/// t = expm1(-2|x|) below, and tanh takes the sign of x.
void tanh_kernel(Lanes& v) {
  const Lanes zero = {};
  const Lanes one = zero + 1.0;
  const LaneInts sign = (LaneInts)v & INT64_MIN;
  const Lanes a = (Lanes)((LaneInts)v & INT64_MAX);
  const auto core = a >= 0x1p-55 && a < 22.0;
  const auto big = a >= 1.0;
  // Lanes outside the core hand expm1 a dummy in its range.
  const Lanes ac = core ? a : one;
  Lanes t = big ? 2.0 * ac : -2.0 * ac;
  expm1_lanes(t);
  // glibc's two quotients share the divisor t + 2: one divide serves both.
  const Lanes q = (big ? zero + 2.0 : -t) / (t + 2.0);
  const Lanes z = (Lanes)((LaneInts)(big ? 1.0 - q : q) ^ sign);
  const Lanes unit = (Lanes)((LaneInts)one | sign);
  v = core ? z : (a < 0x1p-55 ? v * (1.0 + v) : (a >= 22.0 ? unit : v + v));
}

/// f applied to the n real lanes of each of `units` rows; the padding lanes
/// are zeroed afterwards.  tanh runs over the whole block, where the padding
/// lanes hold the (finite) bias.
void activate_rows(Activation act, std::size_t units, std::size_t n, std::size_t stride,
                   double* y) {
  if (act == Activation::Tanh) tanh_lanes(std::span<double>(y, units * stride));
  for (std::size_t u = 0; u < units; ++u) {
    double* row = y + u * stride;
    if (act == Activation::ReLU || act == Activation::Sigmoid) {
      for (std::size_t s = 0; s < n; ++s) row[s] = activate(act, row[s]);
    }
    std::fill(row + n, row + stride, 0.0);
  }
}

/// Copies `units` rows of n values (row stride n) into rows of `stride`
/// lanes, zero-padded.
void to_lanes(std::span<const double> v, std::size_t units, std::size_t n, std::size_t stride,
              double* out) {
  for (std::size_t u = 0; u < units; ++u) {
    std::copy_n(v.data() + u * n, n, out + u * stride);
    std::fill(out + u * stride + n, out + (u + 1) * stride, 0.0);
  }
}

/// The inverse of to_lanes: drops the padding lanes.
void from_lanes(const double* in, std::size_t units, std::size_t n, std::size_t stride,
                double* v) {
  for (std::size_t u = 0; u < units; ++u) std::copy_n(in + u * stride, n, v + u * n);
}

}  // namespace

void tanh_lanes(std::span<double> x) {
  std::size_t i = 0;
  Lanes v = {};
  for (; i + kLanes <= x.size(); i += kLanes) {
    load(v, &x[i]);
    tanh_kernel(v);
    store(&x[i], v);
  }
  if (i == x.size()) return;
  double tail[kLanes] = {};
  std::copy(x.begin() + static_cast<std::ptrdiff_t>(i), x.end(), tail);
  load(v, tail);
  tanh_kernel(v);
  store(tail, v);
  std::copy_n(tail, x.size() - i, x.begin() + static_cast<std::ptrdiff_t>(i));
}

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
  if (x.empty() || x.size() % input_dim() != 0) {
    throw std::invalid_argument("Mlp::forward: bad input size");
  }
  const std::size_t n = x.size() / input_dim();
  const std::size_t stride = lane_stride(n);
  ws.sizes.assign(sizes_.begin(), sizes_.end());
  ws.batch = n;
  ws.stride = stride;
  ws.post.resize(layers_.size() + 1);
  ws.post[0].resize(input_dim() * stride);
  to_lanes(x, input_dim(), n, stride, ws.post[0].data());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const LayerView& layer = layers_[l];
    std::vector<double>& y = ws.post[l + 1];
    y.resize(layer.out * stride);
    affine(&params_[layer.w_offset], &params_[layer.b_offset], ws.post[l].data(), layer.in,
           layer.out, stride, y.data());
    activate_rows(layer.act, layer.out, n, stride, y.data());
  }
  ws.out.resize(output_dim() * n);
  from_lanes(ws.post.back().data(), output_dim(), n, stride, ws.out.data());
  return ws.out;
}

void Mlp::reserve(Workspace& ws, Scratch& scratch, std::size_t n) const {
  const std::size_t stride = lane_stride(n);
  ws.sizes.reserve(sizes_.size());
  if (ws.post.size() < sizes_.size()) ws.post.resize(sizes_.size());
  for (std::size_t l = 0; l < sizes_.size(); ++l) ws.post[l].reserve(sizes_[l] * stride);
  ws.out.reserve(output_dim() * n);
  const std::size_t width = std::ranges::max(sizes_);
  scratch.delta.reserve(n * width);
  scratch.other.reserve(n * width);
}

void Mlp::backward(const Workspace& ws, Scratch& scratch, std::span<const double> dLdy,
                   std::span<double> grad, std::span<double> dLdx) const {
  if (dLdy.empty() || dLdy.size() % output_dim() != 0) {
    throw std::invalid_argument("Mlp::backward: bad dLdy size");
  }
  const std::size_t n = dLdy.size() / output_dim();
  if (!std::ranges::equal(ws.sizes, sizes_) || ws.batch != n) {
    throw std::logic_error(
        "Mlp::backward: workspace holds no forward pass of this network at this batch size");
  }
  if (!grad.empty() && grad.size() != params_.size()) {
    throw std::invalid_argument("Mlp::backward: bad grad size");
  }
  if (!dLdx.empty() && dLdx.size() != input_dim() * n) {
    throw std::invalid_argument("Mlp::backward: bad dLdx size");
  }
  const std::size_t stride = ws.stride;
  const std::size_t width = std::ranges::max(sizes_);
  scratch.delta.resize(n * width);
  scratch.other.resize(n * width);
  transpose(dLdy.data(), output_dim(), n, n, scratch.delta.data());
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const LayerView& layer = layers_[li];
    // delta holds dL/d(post-activation) of this layer; make it dL/d(pre).
    scale_by_activation_grad(layer.act, ws.post[li + 1].data(), layer.out, n, stride,
                             scratch.delta.data());
    if (!grad.empty()) {
      transpose(ws.post[li].data(), layer.in, n, stride, scratch.other.data());
      weight_grad(scratch.delta.data(), scratch.other.data(), layer.in, layer.out, n,
                  &grad[layer.w_offset], &grad[layer.b_offset]);
    }
    // The first layer's dL/dx is only computed when someone reads it.
    if (li == 0 && dLdx.empty()) break;
    input_grad(&params_[layer.w_offset], scratch.delta.data(), layer.in, layer.out, n,
               scratch.other.data());
    scratch.delta.swap(scratch.other);
  }
  if (!dLdx.empty()) transpose(scratch.delta.data(), n, input_dim(), input_dim(), dLdx.data());
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
