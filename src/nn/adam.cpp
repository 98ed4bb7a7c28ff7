#include "nn/adam.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "common/state_io.hpp"
#include "nn/lanes.hpp"

namespace glova::nn {

namespace {

/// A divisor with its reciprocal, and whether divide_blocks() may take the
/// quotient by the reciprocal: only where FMA is hardware (FP_FAST_FMA) and
/// b lies in [2^-64, 2^64], the range docs/architecture.md#adams-quotients
/// proves the check for.
struct Divisor {
  explicit Divisor(double divisor) : b(divisor), inv(1.0 / divisor) {
#ifdef FP_FAST_FMA
    by_reciprocal = b >= 0x1p-64 && b <= 0x1p64;
#endif
  }
  double b;
  double inv;
  bool by_reciprocal = false;
};

#ifdef FP_FAST_FMA
/// Whether any lane of `mask` is set, as one branch: three shuffle-ors
/// leave the or of all eight lanes in lane 0.
bool any_lane(const LaneInts& mask) {
  LaneInts m = mask | __builtin_shufflevector(mask, mask, 4, 5, 6, 7, 0, 1, 2, 3);
  m |= __builtin_shufflevector(m, m, 2, 3, 0, 1, 6, 7, 4, 5);
  m |= __builtin_shufflevector(m, m, 1, 0, 3, 2, 5, 4, 7, 6);
  return m[0] != 0;
}

/// The candidate a / d.b of each lane and whether quotient_check() proves
/// it: RN(|a| inv) takes one correction, q + (|a| - q b) inv, both fused,
/// then gets a's sign back.  Lanes with |a| outside [2^-900, 2^900) fail,
/// +-0 passes: it is its own candidate.
[[gnu::always_inline]] inline void reciprocal_candidate(Lanes& q, LaneInts& ok, const Lanes& a,
                                                        const Divisor& d) {
  const LaneInts sign = (LaneInts)a & INT64_MIN;
  const Lanes abs_a = (Lanes)((LaneInts)a & INT64_MAX);
  Lanes c = abs_a * d.inv;
  Lanes r;
  fma_lanes(r, -c, d.b, abs_a);
  fma_lanes(c, r, d.inv, c);
  fma_lanes(r, -c, d.b, abs_a);
  quotient_check(ok, c, r, d.b);
  ok = (abs_a == 0.0) | ((abs_a >= 0x1p-900) & (abs_a < 0x1p900) & ok);
  q = (Lanes)((LaneInts)c | sign);
}
#endif

/// q[k] = a[k] / d[k].b lane by lane for N blocks of eight, with the bits
/// of the divide: by the reciprocals when every lane of every block passes
/// its check, by dividing otherwise.  Returns whether the reciprocals
/// served.
template <std::size_t N>
[[gnu::always_inline]] inline bool divide_blocks(Lanes (&q)[N], const Lanes (&a)[N],
                                                 const Divisor (&d)[N]) {
#ifdef FP_FAST_FMA
  bool by_reciprocal = true;
  LaneInts ok_all = {};
  ok_all = ~ok_all;
  // Unrolled, so the blocks stay in registers: rolled, GCC kept them on the
  // stack and Adam::step ran about a quarter slower.
#pragma GCC unroll 2
  for (std::size_t k = 0; k < N; ++k) {
    LaneInts ok;
    reciprocal_candidate(q[k], ok, a[k], d[k]);
    ok_all &= ok;
    by_reciprocal = by_reciprocal && d[k].by_reciprocal;
  }
  if (by_reciprocal && !any_lane(~ok_all)) return true;
#endif
#pragma GCC unroll 2
  for (std::size_t k = 0; k < N; ++k) q[k] = a[k] / d[k].b;
  return false;
}

}  // namespace

namespace detail {

bool divide_lanes(const double* a, double b, double* q) {
  Lanes in[1];
  Lanes out[1];
  load(in[0], a);
  const bool by_reciprocal = divide_blocks(out, in, {Divisor(b)});
  store(q, out[0]);
  return by_reciprocal;
}

bool reciprocal_division_built() {
#ifdef FP_FAST_FMA
  return true;
#else
  return false;
#endif
}

}  // namespace detail

Adam::Adam(std::size_t parameter_count, AdamConfig config)
    : config_(config), m_(parameter_count, 0.0), v_(parameter_count, 0.0) {}

void Adam::step(std::span<double> params, std::span<const double> grad) {
  if (params.size() != m_.size() || grad.size() != m_.size()) {
    throw std::invalid_argument("Adam::step: size mismatch");
  }
  ++t_;
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  // Whole blocks of eight run the tail loop's operations lane by lane; only
  // the bias corrections may go by the step's reciprocals, with the bits of
  // the divide (docs/architecture.md#adams-quotients).
  const Divisor bias[2] = {Divisor(bias1), Divisor(bias2)};
  const double lr = config_.learning_rate;
  const double eps = config_.epsilon;
  std::size_t i = 0;
  for (; i + kLanes <= params.size(); i += kLanes) {
    Lanes moments[2];
    Lanes g;
    Lanes p;
    nn::load(moments[0], &m_[i]);
    nn::load(moments[1], &v_[i]);
    nn::load(g, &grad[i]);
    nn::load(p, &params[i]);
    moments[0] = b1 * moments[0] + (1.0 - b1) * g;
    moments[1] = b2 * moments[1] + (1.0 - b2) * g * g;
    Lanes hat[2];  // m_hat, v_hat
    divide_blocks(hat, moments, bias);
    Lanes root;
    for (std::size_t l = 0; l < kLanes; ++l) root[l] = std::sqrt(hat[1][l]);
    p -= lr * hat[0] / (root + eps);
    store(&m_[i], moments[0]);
    store(&v_[i], moments[1]);
    store(&params[i], p);
  }
  for (; i < params.size(); ++i) {
    m_[i] = b1 * m_[i] + (1.0 - b1) * grad[i];
    v_[i] = b2 * v_[i] + (1.0 - b2) * grad[i] * grad[i];
    const double m_hat = m_[i] / bias1;
    const double v_hat = v_[i] / bias2;
    params[i] -= config_.learning_rate * m_hat / (std::sqrt(v_hat) + config_.epsilon);
  }
}

void Adam::save(std::ostream& os) const {
  os << "adam " << t_ << '\n';
  state::write_doubles(os, "m", m_);
  state::write_doubles(os, "v", v_);
}

void Adam::load(std::istream& is) {
  const std::size_t t = state::parse_u64(state::expect_line(is, "adam"), "adam step count");
  std::vector<double> m = state::read_doubles(is, "m");
  std::vector<double> v = state::read_doubles(is, "v");
  if (m.size() != m_.size() || v.size() != v_.size()) {
    state::bad("Adam state size mismatch: expected " + std::to_string(m_.size()) + " parameters, got " +
               std::to_string(m.size()) + "/" + std::to_string(v.size()));
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace glova::nn
