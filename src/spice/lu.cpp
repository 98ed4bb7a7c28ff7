#include "spice/lu.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace glova::spice {

void DenseMatrix::resize_zero(std::size_t n) {
  n_ = n;
  stride_ = row_stride(n);
  data_.assign(n * stride_ + 1, 0.0);
}

bool factor_solve_in_place(DenseMatrix& m, std::span<double> b, std::vector<double>& x) {
  const std::size_t n = m.size();
  const std::size_t stride = m.stride();
  if (b.size() < n) throw std::invalid_argument("factor_solve_in_place: b is shorter than n");
  double* a = m.data();

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest magnitude entry in this column.
    // Branchless select: the compare data-depends on matrix values, so a
    // conditional here mispredicts; cmov keeps the scan running.
    std::size_t pivot = col;
    double best = std::abs(a[col * stride + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a[r * stride + col]);
      const bool better = mag > best;
      pivot = better ? r : pivot;
      best = better ? mag : best;
    }
    if (best < 1e-300) return false;  // singular
    if (pivot != col) {
      double* rc = a + col * stride;
      double* rp = a + pivot * stride;
      for (std::size_t c = 0; c < stride; ++c) std::swap(rc[c], rp[c]);
      std::swap(b[col], b[pivot]);
    }
    const double* __restrict prow = a + col * stride;
    const double inv_pivot = 1.0 / prow[col];
    const double b_col = b[col];
    for (std::size_t r = col + 1; r < n; ++r) {
      double* __restrict row = a + r * stride;
      const double factor = row[col] * inv_pivot;
      if (factor == 0.0) continue;
      // Update the ENTIRE padded row, not just columns right of the pivot:
      // the trip count becomes a fixed multiple of the vector width with an
      // aligned start, so the loop vectorizes with no prologue.  Columns
      // c > col receive exactly the updates classic elimination applies
      // (bit-identical); columns c <= col accumulate garbage in what would
      // be the L factors, which nothing reads again.
      for (std::size_t c = 0; c < stride; ++c) row[c] -= factor * prow[c];
      b[r] -= factor * b_col;
    }
  }

  // Back substitution (b now holds the forward-eliminated RHS).
  x.resize(n);
  double* xp = x.data();
  for (std::size_t r = n; r-- > 0;) {
    const double* row = a + r * stride;
    double sum = b[r];
    for (std::size_t c = r + 1; c < n; ++c) sum -= row[c] * xp[c];
    xp[r] = sum / row[r];
  }
  return true;
}

}  // namespace glova::spice
