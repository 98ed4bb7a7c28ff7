// Tests for the SPICE engine: linear algebra, operating point, transient
// accuracy against closed-form RC solutions, device models, the netlist
// parser, and waveform measurements.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "pdk/mos_params.hpp"
#include "spice/circuit.hpp"
#include "spice/lu.hpp"
#include "spice/measure.hpp"
#include "spice/mos_model.hpp"
#include "spice/parser.hpp"
#include "spice/simulator.hpp"
#include "spice/waveform.hpp"

namespace glova::spice {
namespace {

TEST(Lu, SolvesKnownSystem) {
  DenseMatrix a(2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  std::vector<double> b = {5.0, 10.0};
  std::vector<double> x;
  ASSERT_TRUE(factor_solve_in_place(a, b, x));
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

// A zero (0,0) entry leaves no pivot in place: the kernel must swap rows
// (and their RHS entries) before it can eliminate.
TEST(Lu, SwapsRowsPastAZeroLeadingPivot) {
  DenseMatrix a(3);
  const double rows[3][3] = {{0.0, 2.0, 1.0}, {1.0, 1.0, 0.0}, {2.0, 0.0, 3.0}};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) a.at(r, c) = rows[r][c];
  }
  // x = (1, 2, 3).
  std::vector<double> b = {7.0, 3.0, 11.0};
  std::vector<double> x;
  ASSERT_TRUE(factor_solve_in_place(a, b, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  DenseMatrix a(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  std::vector<double> b = {1.0, 1.0};
  std::vector<double> x;
  EXPECT_FALSE(factor_solve_in_place(a, b, x));
}

TEST(Lu, RejectsShortRhs) {
  DenseMatrix a(3);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) = 1.0;
  std::vector<double> b(2, 1.0);
  std::vector<double> x;
  EXPECT_THROW((void)factor_solve_in_place(a, b, x), std::invalid_argument);
}

/// A random n x n system (entries uniform in [-1, 1), no diagonal boost, so
/// pivoting swaps rows) and the right-hand side of a known solution.
struct RandomSystem {
  DenseMatrix a;
  std::vector<double> b;
  std::vector<double> x_true;
};

RandomSystem random_system(Rng& rng, std::size_t n) {
  RandomSystem s{DenseMatrix(n), std::vector<double>(n, 0.0), rng.uniform_vector(n, -2.0, 2.0)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) s.a.at(i, j) = rng.uniform(-1.0, 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) s.b[i] += s.a.at(i, j) * s.x_true[j];
  }
  return s;
}

// The testbenches' sizes (FIA 4, SAL 5, OCSA+SH 6, padded to strides 4 and
// 8) and one larger system, each solved back to its known solution.
TEST(Lu, RandomRoundTrip) {
  Rng rng(4);
  std::vector<double> x;
  for (const std::size_t n : {4u, 5u, 6u, 12u}) {
    for (int k = 0; k < 16; ++k) {
      RandomSystem s = random_system(rng, n);
      ASSERT_TRUE(factor_solve_in_place(s.a, s.b, x)) << "n=" << n << " k=" << k;
      ASSERT_EQ(x.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], s.x_true[i], 1e-9) << "n=" << n << " k=" << k << " i=" << i;
      }
    }
  }
}

// Textbook elimination with partial pivoting on an unpadded copy: the
// operations the fused kernel performs, in the same order.
std::vector<double> classic_solve(const DenseMatrix& m, std::vector<double> b) {
  const std::size_t n = m.size();
  std::vector<double> a(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a[r * n + c] = m.at(r, c);
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
    std::swap(b[col], b[pivot]);
    const double inv_pivot = 1.0 / a[col * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] * inv_pivot;
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t r = n; r-- > 0;) {
    double sum = b[r];
    for (std::size_t c = r + 1; c < n; ++c) sum -= a[r * n + c] * x[c];
    x[r] = sum / a[r * n + r];
  }
  return x;
}

// Updating whole padded rows leaves garbage only where the L factors would
// be: every solution bit equals classic elimination's.
TEST(Lu, MatchesClassicEliminationBitForBit) {
  Rng rng(11);
  std::vector<double> x;
  for (const std::size_t n : {4u, 5u, 6u, 12u}) {
    for (int k = 0; k < 64; ++k) {
      RandomSystem s = random_system(rng, n);
      const std::vector<double> want = classic_solve(s.a, s.b);
      ASSERT_TRUE(factor_solve_in_place(s.a, s.b, x));
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]), std::bit_cast<std::uint64_t>(want[i]))
            << "n=" << n << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(Waveform, PulseShape) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9, 0.0);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_NEAR(w.value(1.05e-9), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(w.value(1.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.value(3.0e-9), 0.0);
}

TEST(Waveform, PwlInterpolates) {
  const Waveform w = Waveform::pwl({0.0, 1.0, 2.0}, {0.0, 2.0, 0.0});
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(5.0), 0.0);
  EXPECT_THROW((void)Waveform::pwl({1.0, 0.5}, {0.0, 1.0}), std::invalid_argument);
}

TEST(Op, VoltageDivider) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("V1", in, Circuit::ground(), Waveform::dc(1.0));
  ckt.add_resistor("R1", in, mid, 1e3);
  ckt.add_resistor("R2", mid, Circuit::ground(), 3e3);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.node_voltages[mid], 0.75, 1e-6);
  // Branch current of V1: 1 V over 4 kOhm, flowing out of + internally.
  EXPECT_NEAR(op.vsource_currents[0], -1.0 / 4e3, 1e-9);
}

TEST(Op, CurrentSourceIntoResistor) {
  Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add_isource("I1", Circuit::ground(), out, Waveform::dc(1e-3));
  ckt.add_resistor("R1", out, Circuit::ground(), 2e3);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.node_voltages[out], 2.0, 1e-6);
}

TEST(Op, VcvsGain) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, Circuit::ground(), Waveform::dc(0.25));
  ckt.add_vcvs("E1", out, Circuit::ground(), in, Circuit::ground(), 4.0);
  ckt.add_resistor("RL", out, Circuit::ground(), 1e3);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.node_voltages[out], 1.0, 1e-6);
}

TEST(Op, NmosSaturationCurrentMatchesModel) {
  const pdk::MosParams params = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  Circuit ckt;
  const auto d = ckt.node("d");
  const auto g = ckt.node("g");
  ckt.add_vsource("VD", d, Circuit::ground(), Waveform::dc(0.9));
  ckt.add_vsource("VG", g, Circuit::ground(), Waveform::dc(0.9));
  ckt.add_mosfet("M1", d, g, Circuit::ground(), params, 1e-6, 60e-9);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  const double expected = pdk::square_law_id(params, 1e-6 / 60e-9, 0.9, 0.9);
  // VD supplies the drain current (negative branch convention).
  EXPECT_NEAR(-op.vsource_currents[0], expected, expected * 1e-3 + 1e-12);
}

TEST(Op, CmosInverterTransfersCorrectly) {
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const auto pmos = pdk::mos_params(true, pdk::typical_corner(), 60e-9);
  const auto out_at = [&](double vin) {
    Circuit ckt;
    const auto vdd = ckt.node("vdd");
    const auto in = ckt.node("in");
    const auto out = ckt.node("out");
    ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(0.9));
    ckt.add_vsource("VIN", in, Circuit::ground(), Waveform::dc(vin));
    ckt.add_mosfet("MN", out, in, Circuit::ground(), nmos, 1e-6, 60e-9);
    ckt.add_mosfet("MP", out, in, vdd, pmos, 2e-6, 60e-9);
    Simulator sim(ckt);
    const OpResult op = sim.operating_point();
    EXPECT_TRUE(op.converged) << "vin = " << vin;
    return op.node_voltages[out];
  };
  EXPECT_GT(out_at(0.0), 0.85);   // input low -> output high
  EXPECT_LT(out_at(0.9), 0.05);   // input high -> output low
  EXPECT_GT(out_at(0.2), out_at(0.7));  // monotone falling
}

// The MOS channel is symmetric: biasing the "source" terminal above the
// "drain" must produce the same current magnitude flowing the other way,
// both in the raw linearization and through the assembled MNA stamp.
TEST(Op, NmosReversedBiasSwapsSourceAndDrain) {
  const pdk::MosParams params = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const double w_over_l = 1e-6 / 60e-9;
  const MosLinearization fwd = mos_linearize(params, w_over_l, 0.9, 0.9, 0.0);
  const MosLinearization rev = mos_linearize(params, w_over_l, 0.9, 0.0, 0.9);
  EXPECT_DOUBLE_EQ(rev.i_ds, -fwd.i_ds);
  // Swapping terminals swaps the roles of the drain/source derivatives:
  // the low terminal sees gm + gds, mirroring -d_vs of the forward bias.
  EXPECT_DOUBLE_EQ(rev.d_vd, -fwd.d_vs);
  EXPECT_GT(rev.d_vd, 0.0);
  EXPECT_LT(rev.d_vs, 0.0);

  // Same check through the full operating-point solve: reverse the supply
  // and the measured branch current flips sign, same magnitude.
  const auto branch_current = [&](double vd, double vs) {
    Circuit ckt;
    const auto d = ckt.node("d");
    const auto g = ckt.node("g");
    const auto s = ckt.node("s");
    ckt.add_vsource("VD", d, Circuit::ground(), Waveform::dc(vd));
    ckt.add_vsource("VG", g, Circuit::ground(), Waveform::dc(0.9));
    ckt.add_vsource("VS", s, Circuit::ground(), Waveform::dc(vs));
    ckt.add_mosfet("M1", d, g, s, params, 1e-6, 60e-9);
    Simulator sim(ckt);
    const OpResult op = sim.operating_point();
    EXPECT_TRUE(op.converged);
    return op.vsource_currents[0];  // VD branch
  };
  const double fwd_i = branch_current(0.9, 0.0);
  const double rev_i = branch_current(0.0, 0.9);
  // The small residual asymmetry is gmin leakage through swapped node sets.
  EXPECT_NEAR(rev_i, -fwd_i, 1e-8 * std::abs(fwd_i));
}

// Regression for the cutoff-region stamp bug: at vds == 0 an on channel
// carries no current but is still a resistor.  A model that classified
// vds == 0 as cutoff stamped gds = 0, starving Newton of the derivative
// that moves a pass-gate node off equal bias.
TEST(Op, PassGateAtEqualBiasKeepsChannelConductance) {
  const pdk::MosParams params = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const double w_over_l = 1e-6 / 60e-9;
  const MosLinearization lin = mos_linearize(params, w_over_l, 0.9, 0.45, 0.45);
  EXPECT_DOUBLE_EQ(lin.i_ds, 0.0);
  EXPECT_GT(lin.d_vd, 0.0) << "channel conductance lost at vds == 0";

  // Functional version: a node connected only through an on pass-gate must
  // settle to the driven level (gmin alone would leave it near ground).
  Circuit ckt;
  const auto d = ckt.node("d");
  const auto g = ckt.node("g");
  const auto s = ckt.node("s");
  ckt.add_vsource("VG", g, Circuit::ground(), Waveform::dc(0.9));
  ckt.add_vsource("VS", s, Circuit::ground(), Waveform::dc(0.45));
  ckt.add_mosfet("M1", d, g, s, params, 1e-6, 60e-9);
  Simulator sim(ckt);
  const OpResult op = sim.operating_point();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.node_voltages[d], 0.45, 1e-6);
}

// Deep in strong inversion the softplus terms are linear to within
// exp(-z), so the EKV interpolation collapses onto the square law (the
// Level-1 reference, nmos_square_law).  Points are chosen with every
// half-charge argument above ~8 characteristic voltages, which puts the
// analytic disagreement below 0.1%.  With the source grounded and vd >= 0,
// mos_linearize's (i_ds, d_vg, d_vd) is the NMOS (id, gm, gds).
TEST(MosModels, EkvMatchesLevel1InStrongInversion) {
  const pdk::MosParams p = pdk::mos_params(false, pdk::typical_corner(), 100e-9);
  const double w_over_l = 10.0;
  struct Point {
    double vgs, vds;
  };
  const Point points[] = {
      {p.vth + 0.6, 1.0},   // saturation
      {p.vth + 0.8, 0.2},   // triode
      {p.vth + 0.7, 0.05},  // deep triode (pass-gate-like)
  };
  for (const auto& pt : points) {
    const NmosEval l1 = nmos_square_law(p, w_over_l, pt.vgs, pt.vds);
    const MosLinearization ekv = mos_linearize(p, w_over_l, pt.vgs, pt.vds, 0.0);
    EXPECT_NEAR(ekv.i_ds, l1.id, 1e-3 * std::abs(l1.id))
        << "vgs " << pt.vgs << " vds " << pt.vds;
    EXPECT_NEAR(ekv.d_vg, l1.gm, 1e-3 * std::abs(l1.gm))
        << "vgs " << pt.vgs << " vds " << pt.vds;
    EXPECT_NEAR(ekv.d_vd, l1.gds, 1e-3 * std::abs(l1.gds))
        << "vgs " << pt.vgs << " vds " << pt.vds;
  }
}

// Below threshold the square law is dead while EKV conducts with the
// subthreshold slope gm = Id / (n vt) — the property the cold low-voltage
// corner needs.
TEST(MosModels, EkvConductsInWeakInversion) {
  const pdk::MosParams p = pdk::mos_params(false, pdk::typical_corner(), 100e-9);
  const double w_over_l = 10.0;
  const double vgs = p.vth - 0.2;  // ~3 v_char below threshold: sig/sp within 3% of 1
  const NmosEval l1 = nmos_square_law(p, w_over_l, vgs, 0.5);
  const MosLinearization ekv = mos_linearize(p, w_over_l, vgs, 0.5, 0.0);
  EXPECT_EQ(l1.id, 0.0);
  EXPECT_GT(ekv.i_ds, 0.0);
  EXPECT_GT(ekv.d_vg, 0.0);
  EXPECT_GT(ekv.d_vd, 0.0);  // the reverse half-charge keeps gds alive
  const double n_vt = pdk::kEkvSlopeFactor * units::thermal_voltage(p.temp_k);
  EXPECT_NEAR(ekv.d_vg, ekv.i_ds / n_vt, 0.05 * ekv.d_vg);
}

/// Units in the last place between two finite doubles, on the ordered
/// integer line of their bit patterns (0 for equal values, +0 == -0).
std::int64_t ulp_distance(double a, double b) {
  const auto ordered = [](double v) {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  return a == b ? 0 : std::abs(ordered(a) - ordered(b));
}

/// `z` padded with zero lanes to the kernel's lane width.
std::vector<double> padded_lanes(std::vector<double> z) {
  z.resize((z.size() + kChannelLaneWidth - 1) / kChannelLaneWidth * kChannelLaneWidth, 0.0);
  return z;
}

// The lane pass against glibc on a dense grid over [-40, 40] that crosses
// both cutoffs, plus the lanes either side of +-30 to the last ulp: within
// 4 ulp of log1p(exp(z)) and 2 ulp of ez / (1 + ez) between the cutoffs,
// the asymptotes exactly beyond them, NaN through, and zero rather than a
// subnormal below z = -708 (glibc's exp goes subnormal there).
TEST(MosModels, ChannelKernelMatchesLibm) {
  constexpr std::int64_t kSoftplusUlp = 4;
  constexpr std::int64_t kSigmoidUlp = 2;
  std::vector<double> z;
  constexpr int kSteps = 1600000;
  for (int i = 0; i <= kSteps; ++i) z.push_back(-40.0 + 80.0 * i / kSteps);
  for (const double cut : {30.0, -30.0}) {
    z.push_back(cut);
    z.push_back(std::nextafter(cut, 0.0));
    z.push_back(std::nextafter(cut, 2.0 * cut));
  }
  const std::size_t count = z.size();
  z = padded_lanes(z);
  std::vector<double> sp(z.size());
  std::vector<double> sig(z.size());
  softplus_sigmoid(z, sp, sig);

  std::int64_t worst_sp = 0;
  std::int64_t worst_sig = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double zi = z[i];
    if (zi > 30.0) {
      ASSERT_EQ(sp[i], zi) << "z = " << zi;
      ASSERT_EQ(sig[i], 1.0) << "z = " << zi;
    } else if (zi < -30.0) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sp[i]), std::bit_cast<std::uint64_t>(sig[i]))
          << "z = " << zi;
      worst_sp = std::max(worst_sp, ulp_distance(sp[i], std::exp(zi)));
    } else {
      const double ez = std::exp(zi);
      worst_sp = std::max(worst_sp, ulp_distance(sp[i], std::log1p(ez)));
      worst_sig = std::max(worst_sig, ulp_distance(sig[i], ez / (1.0 + ez)));
    }
  }
  EXPECT_LE(worst_sp, kSoftplusUlp);
  EXPECT_LE(worst_sig, kSigmoidUlp);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> special = padded_lanes({nan, inf, -inf, -707.9, -708.0, -708.2, -708.4,
                                              -720.0, -745.1, -800.0, -1e300});
  std::vector<double> sp_special(special.size());
  std::vector<double> sig_special(special.size());
  softplus_sigmoid(special, sp_special, sig_special);
  EXPECT_TRUE(std::isnan(sp_special[0]));
  EXPECT_TRUE(std::isnan(sig_special[0]));
  EXPECT_EQ(sp_special[1], inf);
  EXPECT_EQ(sig_special[1], 1.0);
  for (std::size_t i = 2; i < 11; ++i) {
    EXPECT_NE(std::fpclassify(sp_special[i]), FP_SUBNORMAL) << "z = " << special[i];
    EXPECT_NE(std::fpclassify(sig_special[i]), FP_SUBNORMAL) << "z = " << special[i];
    EXPECT_GE(sp_special[i], 0.0) << "z = " << special[i];
    if (special[i] < -708.0) {
      EXPECT_EQ(sp_special[i], 0.0) << "z = " << special[i];
      EXPECT_EQ(sig_special[i], 0.0) << "z = " << special[i];
    } else {
      EXPECT_LE(ulp_distance(sp_special[i], std::exp(special[i])), kSoftplusUlp);
    }
  }
  std::vector<double> unpadded(3);
  EXPECT_THROW(softplus_sigmoid(unpadded, unpadded, unpadded), std::invalid_argument);
}

// Pins the kernel's bits: one FNV-1a digest over the lane pass on a fixed z
// grid and over mos_linearize on a fixed bias grid, both polarities and
// both orientations.  The parameters are literals (no libm on the way in),
// so the digest depends on the kernel alone: builds with
// GLOVA_SPICE_NATIVE_KERNELS ON and OFF must both reproduce it, which shows
// the vector lanes compute the portable build's bits.  Re-pin it only on a
// deliberate change to the channel arithmetic.
TEST(MosModels, ChannelKernelDigestIsPinned) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  std::vector<double> z;
  for (int i = -800; i <= 800; ++i) z.push_back(i / 16.0);
  for (const double v : {30.0, -30.0, -707.5, -708.0, -709.0, 1e-300, -1e-300}) {
    z.push_back(v);
    z.push_back(std::nextafter(v, 0.0));
  }
  z = padded_lanes(z);
  std::vector<double> sp(z.size());
  std::vector<double> sig(z.size());
  softplus_sigmoid(z, sp, sig);
  for (std::size_t i = 0; i < z.size(); ++i) {
    mix(sp[i]);
    mix(sig[i]);
  }

  pdk::MosParams nmos;
  nmos.vth = 0.38;
  nmos.kp = 350e-6;
  nmos.lambda = 0.12;
  nmos.temp_k = 300.0;
  pdk::MosParams pmos_cold = nmos;
  pmos_cold.is_pmos = true;
  pmos_cold.vth = 0.47;
  pmos_cold.kp = 180e-6;
  pmos_cold.temp_k = 233.15;
  for (const pdk::MosParams& p : {nmos, pmos_cold}) {
    for (int g = 0; g <= 9; ++g) {
      for (int d = 0; d <= 9; ++d) {
        for (int s = 0; s <= 9; ++s) {
          const MosLinearization lin = mos_linearize(p, 7.5, 0.1 * g, 0.1 * d, 0.1 * s);
          mix(lin.i_ds);
          mix(lin.d_vg);
          mix(lin.d_vd);
          mix(lin.d_vs);
        }
      }
    }
  }
  EXPECT_EQ(hash, 0x20daa0a92e56f5e6ull) << std::hex << "digest 0x" << hash;
}

/// Inverter-pair circuit for the plan tests: two grounded sources (VDD, VIN)
/// pin their nodes, three nodes are unknowns, and the seven MOSFETs cover
/// both polarities, forward and swapped channels, and terminals on unknown,
/// pinned and ground nodes.  `with_mosfets = false` builds the same nodes
/// and linear elements only, so its stamp is the static part of the other.
Circuit channel_test_circuit(bool with_mosfets) {
  const pdk::MosParams nmos = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const pdk::MosParams pmos = pdk::mos_params(true, pdk::typical_corner(), 60e-9);
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId in = ckt.node("in");
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  const NodeId c = ckt.node("c");
  const NodeId gnd = Circuit::ground();
  ckt.add_vsource("VDD", vdd, gnd, Waveform::dc(0.9));
  ckt.add_vsource("VIN", in, gnd, Waveform::dc(0.5));
  ckt.add_resistor("RC", c, gnd, 20e3);
  if (with_mosfets) {
    ckt.add_mosfet("M1", a, in, gnd, nmos, 1e-6, 60e-9);
    ckt.add_mosfet("M2", a, in, vdd, pmos, 2e-6, 60e-9);
    ckt.add_mosfet("M3", b, a, c, nmos, 1.5e-6, 60e-9);
    ckt.add_mosfet("M4", c, b, vdd, pmos, 2e-6, 90e-9);
    ckt.add_mosfet("M5", vdd, b, c, nmos, 1e-6, 60e-9);
    ckt.add_mosfet("M6", c, vdd, b, nmos, 0.5e-6, 60e-9);  // vd < vs: swapped
    ckt.add_mosfet("M7", vdd, a, b, pmos, 1e-6, 60e-9);    // mirrored vd < vs: swapped
  }
  return ckt;
}

/// Padded iterate for `plan` at a = 0.3, b = 0.7, c = 0.1 V, pinned tail loaded.
std::vector<double> channel_test_iterate(const Circuit& ckt, StampPlan& plan) {
  AssemblyInputs in;
  in.mode = AnalysisMode::Op;
  plan.begin_solve(in);
  std::vector<double> x(plan.padded_size(), 0.0);
  x[plan.x_slot(ckt.find_node("a"))] = 0.3;
  x[plan.x_slot(ckt.find_node("b"))] = 0.7;
  x[plan.x_slot(ckt.find_node("c"))] = 0.1;
  plan.load_pinned(x);
  return x;
}

// One lane pass over every channel stamps exactly what per-device one-lane
// mos_linearize calls stamp, entry for entry and bit for bit.
TEST(ChannelKernel, PlanStampEqualsPerDeviceLinearizationBitForBit) {
  const Circuit ckt = channel_test_circuit(true);
  const Circuit linear = channel_test_circuit(false);
  StampPlan plan(ckt, {});
  StampPlan linear_plan(linear, {});
  const std::vector<double> x = channel_test_iterate(ckt, plan);
  ASSERT_EQ(channel_test_iterate(linear, linear_plan), x);
  const std::size_t n = plan.unknown_count();
  ASSERT_EQ(n, 3u);

  DenseMatrix g(n);
  std::vector<double> rhs(n + 1);
  ChannelLanes lanes;
  plan.stamp(x, g, rhs, lanes);

  DenseMatrix want(n);
  std::vector<double> want_rhs(n + 1);
  linear_plan.stamp(x, want, want_rhs, lanes);
  const auto unknown = [&](NodeId node) { return plan.node_is_unknown(node); };
  const auto add = [&](NodeId row, NodeId col, double value) {
    if (unknown(row) && unknown(col)) want.at(plan.x_slot(row), plan.x_slot(col)) += value;
  };
  for (const Mosfet& m : ckt.mosfets()) {
    const double vg = x[plan.x_slot(m.gate)];
    const double vd = x[plan.x_slot(m.drain)];
    const double vs = x[plan.x_slot(m.source)];
    const MosLinearization lin = mos_linearize(m.params, m.w_over_l(), vg, vd, vs);
    const double mg = unknown(m.gate) ? 1.0 : 0.0;
    const double md = unknown(m.drain) ? 1.0 : 0.0;
    const double ms = unknown(m.source) ? 1.0 : 0.0;
    const double i_eq =
        lin.i_ds - mg * (lin.d_vg * vg) - md * (lin.d_vd * vd) - ms * (lin.d_vs * vs);
    add(m.drain, m.gate, lin.d_vg);
    add(m.drain, m.drain, lin.d_vd);
    add(m.drain, m.source, lin.d_vs);
    if (unknown(m.drain)) want_rhs[plan.x_slot(m.drain)] -= i_eq;
    add(m.source, m.gate, -lin.d_vg);
    add(m.source, m.drain, -lin.d_vd);
    add(m.source, m.source, -lin.d_vs);
    if (unknown(m.source)) want_rhs[plan.x_slot(m.source)] += i_eq;
  }
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.at(r, c)),
                std::bit_cast<std::uint64_t>(want.at(r, c)))
          << "G(" << r << ", " << c << ")";
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rhs[r]), std::bit_cast<std::uint64_t>(want_rhs[r]))
        << "rhs(" << r << ")";
  }
}

/// Each absorbed source's recovered current at iterate `x` equals, bit for
/// bit, minus its gmin term plus the scalar mos_current of every channel
/// with a drain or source on its node; returns how many channel terms
/// those sums hold.
int expect_vsource_currents_equal_scalar_sums(const Circuit& ckt, const StampPlan& plan,
                                              const std::vector<double>& x,
                                              const SimulatorOptions& options) {
  std::vector<double> out(ckt.vsources().size());
  ChannelLanes lanes;
  plan.vsource_currents(x, {}, 0.0, 1.0, out, lanes);

  int channels_summed = 0;
  for (std::size_t si = 0; si < ckt.vsources().size(); ++si) {
    const NodeId p = ckt.vsources()[si].pos;
    double sum = options.gmin * (x[plan.x_slot(p)] - 0.0);
    for (const Mosfet& m : ckt.mosfets()) {
      if (m.drain != p && m.source != p) continue;
      const double coeff = (m.drain == p ? 1.0 : 0.0) - (m.source == p ? 1.0 : 0.0);
      sum += coeff * mos_current(m.params, m.w_over_l(), x[plan.x_slot(m.gate)],
                                 x[plan.x_slot(m.drain)], x[plan.x_slot(m.source)]);
      ++channels_summed;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[si]), std::bit_cast<std::uint64_t>(-sum))
        << ckt.vsources()[si].name;
  }
  return channels_summed;
}

// An absorbed source's recovered branch current is the KCL sum at its node
// (gmin first, then each channel touching it in circuit order) of the
// scalar one-lane channel currents, bit for bit.
TEST(ChannelKernel, VsourceCurrentsEqualScalarChannelSumBitForBit) {
  const Circuit ckt = channel_test_circuit(true);
  const SimulatorOptions options;
  StampPlan plan(ckt, options);
  const std::vector<double> x = channel_test_iterate(ckt, plan);
  ASSERT_EQ(plan.pinned_count(), 2u);
  const int channels_summed = expect_vsource_currents_equal_scalar_sums(ckt, plan, x, options);
  EXPECT_EQ(channels_summed, 4);  // M2, M4, M5 and M7 at VDD
}

// A channel between two absorbed sources enters both of their sums from one
// lane of the recovery pass, and a channel at neither stays out of it.
TEST(ChannelKernel, VsourceCurrentsShareOneLaneBetweenTwoPinnedNodes) {
  const pdk::MosParams nmos = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const pdk::MosParams pmos = pdk::mos_params(true, pdk::typical_corner(), 60e-9);
  Circuit ckt;
  const NodeId vdd = ckt.node("vdd");
  const NodeId in = ckt.node("in");
  const NodeId a = ckt.node("a");
  const NodeId gnd = Circuit::ground();
  ckt.add_vsource("VDD", vdd, gnd, Waveform::dc(0.9));
  ckt.add_vsource("VIN", in, gnd, Waveform::dc(0.5));
  ckt.add_resistor("RA", a, gnd, 20e3);
  ckt.add_mosfet("M1", a, in, gnd, nmos, 1e-6, 60e-9);   // at neither source
  ckt.add_mosfet("M2", in, a, vdd, pmos, 2e-6, 60e-9);   // between VIN and VDD
  ckt.add_mosfet("M3", a, vdd, in, nmos, 1e-6, 90e-9);   // at VIN
  const SimulatorOptions options;
  StampPlan plan(ckt, options);
  AssemblyInputs inputs;
  inputs.mode = AnalysisMode::Op;
  plan.begin_solve(inputs);
  std::vector<double> x(plan.padded_size(), 0.0);
  x[plan.x_slot(a)] = 0.3;
  plan.load_pinned(x);
  ASSERT_EQ(plan.pinned_count(), 2u);
  const int channels_summed = expect_vsource_currents_equal_scalar_sums(ckt, plan, x, options);
  EXPECT_EQ(channels_summed, 3);  // M2 at VDD, M2 and M3 at VIN
}

TEST(Transient, RcDischargeMatchesAnalytic) {
  // C charged to 1 V discharging through R: v(t) = exp(-t/RC).
  Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add_resistor("R1", out, Circuit::ground(), 1e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 1e-12, 1.0);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 3e-9;
  spec.dt = 5e-12;
  spec.use_ic = true;
  spec.initial_conditions["out"] = 1.0;
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  const auto& v = res.trace("out");
  const double tau = 1e3 * 1e-12;
  for (std::size_t i = 0; i < res.times.size(); i += 50) {
    EXPECT_NEAR(v[i], std::exp(-res.times[i] / tau), 5e-3) << "t = " << res.times[i];
  }
}

TEST(Transient, RcChargeStepResponse) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, Circuit::ground(),
                  Waveform::pulse(0.0, 1.0, 0.1e-9, 1e-12, 1e-12, 10e-9, 0.0));
  ckt.add_resistor("R1", in, out, 10e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 100e-15);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 5e-9;
  spec.dt = 2e-12;
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  const auto& v = res.trace("out");
  const double tau = 10e3 * 100e-15;  // 1 ns
  const double t_probe = 0.1e-9 + tau;
  EXPECT_NEAR(value_at(res.times, v, t_probe), 1.0 - std::exp(-1.0), 0.01);
}

TEST(Transient, EnergyConservationInRcCharge) {
  // Charging a cap through a resistor from a step: the supply delivers
  // C*V^2, half stored, half dissipated.
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, Circuit::ground(),
                  Waveform::pulse(0.0, 1.0, 0.05e-9, 1e-12, 1e-12, 100e-9, 0.0));
  ckt.add_resistor("R1", in, out, 1e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 200e-15);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 3e-9;  // 15 tau
  spec.dt = 1e-12;
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok);
  const double delivered = supply_energy(res.times, res.trace("I(V1)"), 1.0, 0.0, 3e-9);
  EXPECT_NEAR(delivered, 200e-15 * 1.0, 200e-15 * 0.05);
}

TEST(Transient, FinalStepLandsExactlyOnTStop) {
  // Whether or not t_stop is an integer multiple of the initial dt, the run
  // must end exactly on t_stop with strictly positive steps everywhere.
  Circuit ckt;
  const auto out = ckt.node("out");
  ckt.add_resistor("R1", out, Circuit::ground(), 1e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 1e-12, 1.0);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 1e-9;
  spec.use_ic = true;
  spec.initial_conditions["out"] = 1.0;
  for (const double dt : {3e-13, 1e-12}) {
    spec.dt = dt;
    const TransientResult res = sim.transient(spec);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.times.back(), spec.t_stop) << "dt " << dt;
    EXPECT_EQ(res.times.size(), res.steps_accepted + 1) << "dt " << dt;
    for (std::size_t i = 1; i < res.times.size(); ++i) {
      EXPECT_GT(res.times[i], res.times[i - 1]) << "non-positive step " << i << ", dt " << dt;
    }
  }
}

TEST(TransientResult, TraceLookupByNameIsRebuiltAfterAppends) {
  TransientResult r;
  r.traces.push_back(Trace{"a", {1.0}});
  r.traces.push_back(Trace{"b", {2.0}});
  EXPECT_TRUE(r.has_trace("a"));
  EXPECT_EQ(r.trace("b")[0], 2.0);
  EXPECT_FALSE(r.has_trace("c"));
  r.traces.push_back(Trace{"c", {3.0}});  // map must rebuild lazily
  EXPECT_TRUE(r.has_trace("c"));
  EXPECT_EQ(r.trace("c")[0], 3.0);
  EXPECT_THROW((void)r.trace("missing"), std::out_of_range);
}

TEST(Op, PinnedSourceAbsorptionMatchesFullBranchFormulation) {
  // The structure-aware plan absorbs grounded ideal sources (5 unknowns on
  // the SAL netlist instead of 13).  Both formulations solve the same
  // equations: operating points must agree to solver tolerance.
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 60e-9);
  const auto pmos = pdk::mos_params(true, pdk::typical_corner(), 60e-9);
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  const auto buf = ckt.node("buf");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(0.9));
  ckt.add_vsource("VIN", in, Circuit::ground(), Waveform::dc(0.35));
  ckt.add_mosfet("MN", out, in, Circuit::ground(), nmos, 1e-6, 60e-9);
  ckt.add_mosfet("MP", out, in, vdd, pmos, 2e-6, 60e-9);
  ckt.add_resistor("RL", out, buf, 5e3);
  ckt.add_capacitor("CL", buf, Circuit::ground(), 1e-15);

  SimulatorOptions absorbed;
  SimulatorOptions full;
  full.pin_grounded_sources = false;
  Simulator sim_a(ckt, absorbed);
  Simulator sim_f(ckt, full);
  EXPECT_LT(sim_a.plan().unknown_count(), sim_f.plan().unknown_count());

  const OpResult a = sim_a.operating_point();
  const OpResult f = sim_f.operating_point();
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(f.converged);
  for (std::size_t nd = 0; nd < a.node_voltages.size(); ++nd) {
    EXPECT_NEAR(a.node_voltages[nd], f.node_voltages[nd], 1e-6) << "node " << nd;
  }
  ASSERT_EQ(a.vsource_currents.size(), f.vsource_currents.size());
  for (std::size_t si = 0; si < a.vsource_currents.size(); ++si) {
    EXPECT_NEAR(a.vsource_currents[si], f.vsource_currents[si],
                std::abs(f.vsource_currents[si]) * 1e-6 + 1e-12)
        << "source " << si;
  }
}

TEST(Transient, PinnedSourceAbsorptionMatchesFullBranchWaveforms) {
  Circuit ckt;
  const auto in = ckt.node("in");
  const auto out = ckt.node("out");
  ckt.add_vsource("V1", in, Circuit::ground(),
                  Waveform::pulse(0.0, 1.0, 0.1e-9, 1e-12, 1e-12, 10e-9, 0.0));
  ckt.add_resistor("R1", in, out, 10e3);
  ckt.add_capacitor("C1", out, Circuit::ground(), 100e-15);
  TransientSpec spec;
  spec.t_stop = 2e-9;
  spec.dt = 2e-12;

  SimulatorOptions full;
  full.pin_grounded_sources = false;
  Simulator sim_a(ckt);
  Simulator sim_f(ckt, full);
  const TransientResult a = sim_a.transient(spec);
  const TransientResult f = sim_f.transient(spec);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(f.ok) << f.error;
  ASSERT_EQ(a.times.size(), f.times.size());
  const auto& va = a.trace("out");
  const auto& vf = f.trace("out");
  const auto& ia = a.trace("I(V1)");
  const auto& iff = f.trace("I(V1)");
  for (std::size_t i = 0; i < va.size(); i += 20) {
    EXPECT_NEAR(va[i], vf[i], 1e-7) << "t = " << a.times[i];
    EXPECT_NEAR(ia[i], iff[i], 1e-10) << "t = " << a.times[i];
  }

  // UIC variant: the t = 0 sample is the caller's initial state, not a
  // solved point — both formulations must record a zero branch current
  // there (regression: KCL recovery used to run against the unloaded
  // pinned tail).
  spec.use_ic = true;
  spec.initial_conditions["out"] = 0.5;
  const TransientResult au = sim_a.transient(spec);
  const TransientResult fu = sim_f.transient(spec);
  ASSERT_TRUE(au.ok) << au.error;
  ASSERT_TRUE(fu.ok) << fu.error;
  EXPECT_DOUBLE_EQ(au.trace("I(V1)")[0], 0.0);
  EXPECT_DOUBLE_EQ(fu.trace("I(V1)")[0], 0.0);
  const auto& vau = au.trace("out");
  const auto& vfu = fu.trace("out");
  const auto& iau = au.trace("I(V1)");
  const auto& ifu = fu.trace("I(V1)");
  for (std::size_t i = 0; i < vau.size(); i += 20) {
    EXPECT_NEAR(vau[i], vfu[i], 1e-7) << "t = " << au.times[i];
    EXPECT_NEAR(iau[i], ifu[i], 1e-10) << "t = " << au.times[i];
  }
}

TEST(Transient, FloatingCapacitorHoldsChargeWhenSwitchesOpen) {
  // The FIA reservoir construct: a capacitor between two internal nodes,
  // charged through MOSFET switches that then open.  The floating cap must
  // hold its rail-to-rail voltage (only the load discharges it).
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 30e-9);
  const auto pmos = pdk::mos_params(true, pdk::typical_corner(), 30e-9);
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto pc = ckt.node("pc");
  const auto pcb = ckt.node("pcb");
  const auto top = ckt.node("top");
  const auto bot = ckt.node("bot");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), Waveform::dc(0.9));
  // Switches open at 0.2 ns: pc rises (PMOS off), pcb falls (NMOS off).
  ckt.add_vsource("VPC", pc, Circuit::ground(),
                  Waveform::pulse(0.0, 0.9, 0.2e-9, 10e-12, 10e-12, 1.0, 0.0));
  ckt.add_vsource("VPCB", pcb, Circuit::ground(),
                  Waveform::pulse(0.9, 0.0, 0.2e-9, 10e-12, 10e-12, 1.0, 0.0));
  ckt.add_mosfet("Msw_top", top, pc, vdd, pmos, 2e-6, 30e-9);
  ckt.add_mosfet("Msw_bot", bot, pcb, Circuit::ground(), nmos, 2e-6, 30e-9);
  ckt.add_capacitor("Cres", top, bot, 100e-15);
  // A resistive load across the floating cap discharges it slowly.
  ckt.add_resistor("RL", top, bot, 1e6);  // tau = 100 ns >> sim window
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 2e-9;
  spec.dt = 2e-12;
  spec.record = {"top", "bot"};
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  const auto& vt = res.trace("top");
  const auto& vb = res.trace("bot");
  // Charged to the rails at DC...
  EXPECT_NEAR(vt.front() - vb.front(), 0.9, 1e-3);
  // ...and still holding (minus the slow RC droop) after the switches open.
  const double v_end = vt.back() - vb.back();
  const double expected = 0.9 * std::exp(-(2e-9 - 0.2e-9) / (1e6 * 100e-15));
  EXPECT_NEAR(v_end, expected, 0.02);
}

TEST(Transient, BoostedPassGateSharesChargeBidirectionally) {
  // The DRAM access construct: a boosted NMOS pass-gate between two caps,
  // with the *source* side above the drain side (reverse conduction — the
  // channel-symmetry path of the channel model).
  const auto nmos = pdk::mos_params(false, pdk::typical_corner(), 50e-9);
  Circuit ckt;
  const auto cellv = ckt.node("cellv");
  const auto wl = ckt.node("wl");
  const auto wr = ckt.node("wr");
  const auto bl = ckt.node("bl");
  const auto blp = ckt.node("blp");
  const auto peq = ckt.node("peq");
  const auto cell = ckt.node("cell");
  // Cell written to 0.8 V, bitline precharged to 0.45 V; both switches
  // open before the wordline rises at 0.5 ns.
  ckt.add_vsource("VCELL", cellv, Circuit::ground(), Waveform::dc(0.8));
  ckt.add_vsource("VBLP", blp, Circuit::ground(), Waveform::dc(0.45));
  ckt.add_vsource("VWR", wr, Circuit::ground(),
                  Waveform::pulse(1.35, 0.0, 0.1e-9, 10e-12, 10e-12, 1.0, 0.0));
  ckt.add_vsource("VPEQ", peq, Circuit::ground(),
                  Waveform::pulse(1.35, 0.0, 0.1e-9, 10e-12, 10e-12, 1.0, 0.0));
  ckt.add_vsource("VWL", wl, Circuit::ground(),
                  Waveform::pulse(0.0, 1.35, 0.5e-9, 50e-12, 50e-12, 1.0, 0.0));
  ckt.add_mosfet("Mwr", cell, wr, cellv, nmos, 1e-6, 30e-9);
  ckt.add_mosfet("Mpeq", bl, peq, blp, nmos, 1e-6, 30e-9);
  ckt.add_mosfet("Macc", bl, wl, cell, nmos, 0.28e-6, 50e-9);
  ckt.add_capacitor("Cs", cell, Circuit::ground(), 12e-15);
  ckt.add_capacitor("Cbl", bl, Circuit::ground(), 24e-15);
  Simulator sim(ckt);
  TransientSpec spec;
  spec.t_stop = 3e-9;
  spec.dt = 2e-12;
  spec.record = {"cell", "bl"};
  const TransientResult res = sim.transient(spec);
  ASSERT_TRUE(res.ok) << res.error;
  // Charge conservation: 12f * 0.8 + 24f * 0.45 -> 36f * V  =>  V ~ 0.5667.
  const double v_share = (12e-15 * 0.8 + 24e-15 * 0.45) / 36e-15;
  EXPECT_NEAR(res.trace("bl").back(), v_share, 0.01);
  EXPECT_NEAR(res.trace("cell").back(), v_share, 0.01);
}

TEST(Measure, DifferenceOfTracePair) {
  const std::vector<double> a = {1.0, 3.0, 5.0};
  const std::vector<double> b = {0.5, 1.0, 1.5};
  const auto d = difference(a, b);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 0.5);
  EXPECT_DOUBLE_EQ(d[2], 3.5);
  EXPECT_THROW((void)difference(a, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Measure, CapacitorRechargeEnergy) {
  // 100 fF recharged by 0.25 V from a 0.9 V rail: C * Vdd * |dV|.
  EXPECT_DOUBLE_EQ(capacitor_recharge_energy(100e-15, 0.9, 0.9, 0.65), 100e-15 * 0.9 * 0.25);
  // Direction-independent magnitude; zero swing costs nothing.
  EXPECT_DOUBLE_EQ(capacitor_recharge_energy(100e-15, 0.9, 0.65, 0.9),
                   capacitor_recharge_energy(100e-15, 0.9, 0.9, 0.65));
  EXPECT_DOUBLE_EQ(capacitor_recharge_energy(100e-15, 0.9, 0.4, 0.4), 0.0);
}

TEST(Measure, CrossingAndIntegral) {
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> v = {0.0, 1.0, 0.0, 1.0};
  const auto rise = first_crossing(t, v, 0.5, CrossDirection::Rising);
  ASSERT_TRUE(rise.has_value());
  EXPECT_DOUBLE_EQ(*rise, 0.5);
  const auto fall = first_crossing(t, v, 0.5, CrossDirection::Falling);
  ASSERT_TRUE(fall.has_value());
  EXPECT_DOUBLE_EQ(*fall, 1.5);
  const auto late = first_crossing(t, v, 0.5, CrossDirection::Rising, 1.6);
  ASSERT_TRUE(late.has_value());
  EXPECT_DOUBLE_EQ(*late, 2.5);
  EXPECT_FALSE(first_crossing(t, v, 2.0, CrossDirection::Rising).has_value());
  EXPECT_DOUBLE_EQ(integrate(t, v, 0.0, 3.0), 1.5);
  EXPECT_DOUBLE_EQ(integrate(t, v, 0.5, 1.5), 0.75);
  EXPECT_DOUBLE_EQ(min_in_window(t, v, 0.5, 2.5), 0.0);
  EXPECT_DOUBLE_EQ(max_in_window(t, v, 0.0, 1.2), 1.0);
}

/// The trapezoid as integrate() computed it before its one-pass walk: both
/// ends of every clipped interval through value_at().
double integrate_by_value_at(std::span<const double> t, std::span<const double> v, double t0,
                             double t1) {
  double sum = 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const double a = std::max(t[i - 1], t0);
    const double b = std::min(t[i], t1);
    if (b <= a) continue;
    sum += 0.5 * (value_at(t, v, a) + value_at(t, v, b)) * (b - a);
  }
  return sum;
}

void expect_same_integral_bits(const std::vector<double>& t, const std::vector<double>& v,
                               double t0, double t1) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(integrate(t, v, t0, t1)),
            std::bit_cast<std::uint64_t>(integrate_by_value_at(t, v, t0, t1)))
      << "window [" << t0 << ", " << t1 << "] over " << t.size() << " samples";
}

TEST(Measure, IntegrateMatchesTheValueAtTrapezoidBitForBit) {
  // Duplicate time points at the front, inside, and at the back; windows on
  // samples, between them, reversed, and outside the trace.
  const std::vector<double> t = {0.0, 0.0, 1.0, 1.0, 2.5, 3.0, 3.0};
  const std::vector<double> v = {0.3, -0.7, 1.1, 0.2, -0.4, 0.9, -1.3};
  for (const auto& [t0, t1] : std::vector<std::pair<double, double>>{
           {0.0, 3.0}, {1.0, 3.0}, {1.0, 2.5}, {-1.0, 5.0}, {0.4, 2.7}, {1.0, 1.0},
           {2.7, 0.4}, {3.0, 5.0}, {-2.0, -1.0}, {-2.0, 0.0}, {0.0, 0.0}, {2.5, 2.6}}) {
    expect_same_integral_bits(t, v, t0, t1);
  }

  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.index(12);
    std::vector<double> times(n);
    std::vector<double> values(n);
    double now = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && rng.uniform() >= 0.25) now += rng.uniform(1e-3, 1.0);  // else a duplicate
      times[i] = now;
      values[i] = rng.normal();
    }
    const auto window_end = [&] {
      const double r = rng.uniform();
      if (r < 0.4) return times[rng.index(n)];
      if (r < 0.8) return rng.uniform(times.front(), times.back() + 1e-9);
      return r < 0.9 ? times.front() - rng.uniform(0.1, 2.0) : times.back() + rng.uniform(0.1, 2.0);
    };
    const double t0 = window_end();
    expect_same_integral_bits(times, values, t0, window_end());
  }
}

TEST(Parser, NumbersWithSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_number("10k"), 1e4);
  EXPECT_DOUBLE_EQ(parse_spice_number("100f"), 1e-13);
  EXPECT_DOUBLE_EQ(parse_spice_number("3meg"), 3e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5n"), 2.5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("0.9"), 0.9);
  EXPECT_DOUBLE_EQ(parse_spice_number("1u"), 1e-6);
  EXPECT_THROW((void)parse_spice_number("abc"), std::runtime_error);
}

TEST(Parser, RcNetlistSimulates) {
  const std::string text = R"(* RC lowpass
VIN in 0 PULSE(0 1 0.1n 1p 1p 10n)
R1 in out 10k
C1 out 0 100f
.tran 2p 5n
.end
)";
  const ParsedNetlist parsed = parse_netlist(text);
  ASSERT_TRUE(parsed.tran.has_value());
  EXPECT_EQ(parsed.circuit.resistors().size(), 1u);
  EXPECT_EQ(parsed.circuit.capacitors().size(), 1u);
  Simulator sim(parsed.circuit);
  const TransientResult res = sim.transient(*parsed.tran);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(value_at(res.times, res.trace("out"), 1.1e-9),
              1.0 - std::exp(-1.0), 0.02);
}

TEST(Parser, MosfetAndControlCards) {
  const std::string text = R"(
VDD vdd 0 0.9
VIN in 0 DC 0.45
M1 out in 0 NMOS W=1u L=60n
M2 out in vdd PMOS W=2u L=60n
.ic V(out)=0.5
.tran 1p 1n uic
.end
)";
  const ParsedNetlist parsed = parse_netlist(text);
  EXPECT_EQ(parsed.circuit.mosfets().size(), 2u);
  EXPECT_TRUE(parsed.circuit.mosfets()[1].params.is_pmos);
  EXPECT_DOUBLE_EQ(parsed.circuit.mosfets()[0].w, 1e-6);
  ASSERT_TRUE(parsed.tran.has_value());
  EXPECT_TRUE(parsed.tran->use_ic);
  EXPECT_DOUBLE_EQ(parsed.tran->initial_conditions.at("out"), 0.5);
}

TEST(Parser, MalformedLineReportsLineNumber) {
  try {
    (void)parse_netlist("R1 a b\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(Parser, MalformedPulseAndMosfetReportErrors) {
  // A PULSE stimulus with too few values (the clocked-testbench stimulus
  // shape every SPICE backend uses) must fail, naming the line.
  try {
    (void)parse_netlist("VDD vdd 0 0.9\nVCLK clk 0 PULSE(0 0.9 1n)\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("PULSE"), std::string::npos) << what;
  }
  // A MOSFET without its NMOS/PMOS model card is rejected.
  EXPECT_THROW((void)parse_netlist("M1 d g 0 W=1u L=30n\n"), std::runtime_error);
  // A floating capacitor with a malformed value is rejected.
  EXPECT_THROW((void)parse_netlist("C1 top bot 100q\n"), std::runtime_error);
}

}  // namespace
}  // namespace glova::spice
