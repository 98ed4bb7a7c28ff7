// The lane pass of the EKV channel kernel (see mos_model.hpp).  Compiled
// with the SPICE kernel flags: -ffp-contract=off keeps every lane's
// arithmetic the plain IEEE sequence written here, so the vector build and
// the portable build produce the same bits.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/units.hpp"
#include "spice/mos_model.hpp"

namespace glova::spice {

namespace {

// e^t by ln2 range reduction: t = k*ln2 + r with |r| <= ln2/2, e^t = 2^k e^r.
// Adding kShift rounds t/ln2 to the integer k and leaves k in the low
// mantissa bits, from which 2^k is built by shifting it into the exponent.
constexpr double kInvLn2 = 0x1.71547652b82fep0;
constexpr double kLn2Hi = 0x1.62e42feep-1;  // 32 significant bits: k * kLn2Hi is exact
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kShift = 0x1.8p52;
// e^t for t below this would be subnormal: flush to 0 instead.  At the floor
// k = -1021, so 2^k and the result stay normal.
constexpr double kExpFloor = -708.0;
// Past |z| = 30 the model takes softplus and sigmoid from their asymptotes.
constexpr double kCutoff = 30.0;
// Floor for the log1p / sigmoid inputs: those results are only kept for
// |z| <= 30, where e^-|z| > 2^-44, so flooring discarded lanes at 2^-46
// keeps their intermediates (s^2 and its powers) out of the subnormals.
constexpr double kTinyU = 0x1p-46;

constexpr double factorial(int n) { return n <= 1 ? 1.0 : n * factorial(n - 1); }

/// e^-|z| for one lane: 0 below kExpFloor, NaN for NaN.
inline double exp_neg_abs(double z) {
  const double t = -std::fabs(z);
  const double tc = t < kExpFloor ? kExpFloor : t;
  const double shifted = tc * kInvLn2 + kShift;
  const std::uint64_t k_bits = std::bit_cast<std::uint64_t>(shifted);
  const double k = shifted - kShift;
  const double r = (tc - k * kLn2Hi) - k * kLn2Lo;
  // e^r = 1 + r + r^2 Q(r), Q the degree-11 Taylor tail (truncation below
  // 1e-17 relative), by Estrin's scheme: the lane pass is bound by latency.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const double a0 = 1.0 / factorial(2) + r * (1.0 / factorial(3));
  const double a1 = 1.0 / factorial(4) + r * (1.0 / factorial(5));
  const double a2 = 1.0 / factorial(6) + r * (1.0 / factorial(7));
  const double a3 = 1.0 / factorial(8) + r * (1.0 / factorial(9));
  const double a4 = 1.0 / factorial(10) + r * (1.0 / factorial(11));
  const double a5 = 1.0 / factorial(12) + r * (1.0 / factorial(13));
  const double q = ((a0 + r2 * a1) + r4 * (a2 + r2 * a3)) + r8 * (a4 + r2 * a5);
  const double e_r = 1.0 + (r + r2 * q);
  // The low 12 bits of k_bits hold k + 1023 once 1023 is added (k in
  // [-1021, 0]); shifting them into the exponent field gives 2^k.
  const double scale = std::bit_cast<double>((k_bits + 1023) << 52);
  return t < kExpFloor ? 0.0 : e_r * scale;
}

/// 2 atanh(s) = ln((1 + s) / (1 - s)) for 0 <= s <= 1/3, so that
/// log1p(u) = 2 atanh(u / (2 + u)) for u in [0, 1].
inline double two_atanh(double s) {
  // 2 atanh(s) = 2s + 2s w A(w), w = s^2, A(w) = sum_{n=0}^{15} w^n / (2n + 3):
  // w <= 1/9 puts the truncation below 1e-17 relative.
  const double w = s * s;
  const double w2 = w * w;
  const double w4 = w2 * w2;
  const double w8 = w4 * w4;
  const double e0 = 1.0 / 3 + w * (1.0 / 5);
  const double e1 = 1.0 / 7 + w * (1.0 / 9);
  const double e2 = 1.0 / 11 + w * (1.0 / 13);
  const double e3 = 1.0 / 15 + w * (1.0 / 17);
  const double e4 = 1.0 / 19 + w * (1.0 / 21);
  const double e5 = 1.0 / 23 + w * (1.0 / 25);
  const double e6 = 1.0 / 27 + w * (1.0 / 29);
  const double e7 = 1.0 / 31 + w * (1.0 / 33);
  const double a = ((e0 + w2 * e1) + w4 * (e2 + w2 * e3)) +
                   w8 * ((e4 + w2 * e5) + w4 * (e6 + w2 * e7));
  const double two_s = 2.0 * s;
  return two_s + (two_s * w) * a;
}

}  // namespace

MosChannel mos_channel(const pdk::MosParams& params, double w_over_l) {
  MosChannel c;
  c.polarity = params.is_pmos ? -1.0 : 1.0;
  c.vth = params.vth;
  c.lambda = params.lambda;
  c.v_char = 2.0 * pdk::kEkvSlopeFactor * units::thermal_voltage(params.temp_k);
  c.inv_v_char = 1.0 / c.v_char;
  c.k = params.kp * w_over_l;
  return c;
}

void softplus_sigmoid(std::span<const double> z, std::span<double> softplus,
                      std::span<double> sigmoid) {
  const std::size_t n = z.size();
  if (softplus.size() != n || sigmoid.size() != n || n % kChannelLaneWidth != 0) {
    throw std::invalid_argument("softplus_sigmoid: lane arrays must share a padded size");
  }
  const double* __restrict zp = z.data();
  double* __restrict sp = softplus.data();
  double* __restrict sig = sigmoid.data();
  // Two loops, not one: each is short enough that the out-of-order core
  // overlaps the latency chains of every vector in it.  The first parks
  // u = e^-|z| in the sigmoid lanes.
  for (std::size_t b = 0; b < n; b += kChannelLaneWidth) {
    for (std::size_t j = b; j < b + kChannelLaneWidth; ++j) sig[j] = exp_neg_abs(zp[j]);
  }
  for (std::size_t b = 0; b < n; b += kChannelLaneWidth) {
    for (std::size_t j = b; j < b + kChannelLaneWidth; ++j) {
      const double zj = zp[j];
      const double u = sig[j];
      const double um = u < kTinyU ? kTinyU : u;
      // softplus(z) = max(z, 0) + log1p(e^-|z|), sigmoid(z) = 1 / (1 + e^-z).
      const double sp_mid = (zj > 0.0 ? zj : 0.0) + two_atanh(um / (2.0 + um));
      const double sig_mid = (zj >= 0.0 ? 1.0 : um) / (1.0 + um);
      sp[j] = zj > kCutoff ? zj : (zj < -kCutoff ? u : sp_mid);
      sig[j] = zj > kCutoff ? 1.0 : (zj < -kCutoff ? u : sig_mid);
    }
  }
}

void ChannelLanes::prepare(std::size_t count) {
  count_ = count;
  const std::size_t lanes =
      (2 * count + kChannelLaneWidth - 1) / kChannelLaneWidth * kChannelLaneWidth;
  z_.resize(lanes);
  softplus_.resize(lanes);
  sigmoid_.resize(lanes);
  vds_.resize(count);
  forward_.resize(count);
  std::fill(z_.begin() + static_cast<std::ptrdiff_t>(2 * count), z_.end(), 0.0);
}

MosLinearization mos_linearize(const pdk::MosParams& params, double w_over_l, double vg,
                               double vd, double vs) {
  thread_local ChannelLanes lanes;
  const MosChannel channel = mos_channel(params, w_over_l);
  lanes.prepare(1);
  lanes.orient(0, channel, vg, vd, vs);
  lanes.evaluate();
  return lanes.finish(0, channel);
}

}  // namespace glova::spice
