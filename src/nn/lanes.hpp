// Eight-double lane vectors shared by the NN kernels: the tanh kernel
// (mlp.cpp) and Adam's quotients (adam.cpp).  Private to src/nn and its
// tests.
//
// The helpers sit in an unnamed namespace, so every TU that includes this
// header compiles its own copy with its own flags: the native NN TUs never
// link against a copy built for the baseline ISA.  Vectors move through
// references, never by value: they are wider than the baseline ISA's
// registers (GCC's -Wpsabi).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace glova::nn {
namespace {

// W doubles as one GCC/Clang vector-extension value.  The typedef sits in a
// class template because GCC drops a dependent vector_size from an alias
// template; the static_asserts catch that.
template <std::size_t W>
struct VecOf {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};
template <std::size_t W>
using Vec = typename VecOf<W>::type;

constexpr std::size_t kLanes = 8;  ///< doubles per full lane vector
using Lanes = Vec<kLanes>;
static_assert(sizeof(Lanes) == kLanes * sizeof(double));
/// The lanes' bit patterns; also what a lane comparison yields (-1 or 0).
typedef std::int64_t LaneInts __attribute__((vector_size(sizeof(Lanes))));

template <class V>
void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <class V>
void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

inline double lane_of(const Lanes& v, std::size_t i) { return v[i]; }
inline double lane_of(double v, std::size_t) { return v; }

/// r = a * b + c rounded once, lane by lane; an operand may be a scalar.
template <class A, class B, class C>
void fma_lanes(Lanes& r, const A& a, const B& b, const C& c) {
  for (std::size_t i = 0; i < kLanes; ++i) {
    r[i] = std::fma(lane_of(a, i), lane_of(b, i), lane_of(c, i));
  }
}

/// Which lanes of q are RN(a / b), told by the remainder r = fma(-q, b, a),
/// for b > 0, a > 0 and q positive with a normal half ulp (q >= 2^-969).
/// With h = ulp(q) / 2, and h- = h / 2 when q is a power of two (the
/// doubles below it are twice as dense), q = RN(a / b) iff
/// -h- b < a - q b < h b: a quotient of two doubles is never a midpoint, so
/// the ends never matter.  A correct q leaves an exact remainder.  A wrong
/// one leaves a - q b at or beyond a bound, and h b is a double (h is a
/// power of two), so RN(a - q b) is too: the strict test rejects it.
/// `ok` is -1 in the lanes that pass, 0 elsewhere
/// (docs/architecture.md#adams-quotients).
inline void quotient_check(LaneInts& ok, const Lanes& q, const Lanes& r, double b) {
  constexpr std::int64_t kExponent = 0x7ff0000000000000;
  constexpr std::int64_t kMantissa = 0x000fffffffffffff;
  const LaneInts bits = (LaneInts)q;
  // h: q's exponent field less 53, i.e. 2^(e - 53) for q in [2^e, 2^(e + 1)).
  const Lanes h = (Lanes)((bits & kExponent) - (std::int64_t{53} << 52));
  const Lanes h_below = (bits & kMantissa) == 0 ? 0.5 * h : h;
  ok = (r < h * b) & (r > -(h_below * b));
}

}  // namespace

namespace detail {

/// q[i] = a[i] / b for the eight lanes at `a`: by the reciprocal 1 / b and
/// quotient_check() where the build has hardware FMA (FP_FAST_FMA), b is in
/// [2^-64, 2^64] and every lane is +-0 or has |a| in [2^-900, 2^900); by
/// dividing otherwise.  Either way q has the bits of a / b.  Returns
/// whether the reciprocal served.  Adam::step runs the same kernel on its
/// bias corrections, both of a block behind one check.
bool divide_lanes(const double* a, double b, double* q);

/// Whether divide_lanes() has its reciprocal path in this build: adam.cpp
/// saw FP_FAST_FMA.  Without it every block divides.
bool reciprocal_division_built();

}  // namespace detail
}  // namespace glova::nn
