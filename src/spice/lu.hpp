// Dense LU with partial pivoting, fused with the solve.  The stamp plan
// absorbs grounded voltage sources, so the testbenches' MNA systems have 4-6
// unknowns (FIA 4, SAL 5, OCSA+SH 6): a dense elimination on a padded row
// layout is both simpler and faster than a sparse one at this scale.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace glova::spice {

/// Row-major dense square matrix with a padded row stride.
///
/// Rows are stored with stride row_stride(n) — n rounded up to a multiple of
/// 4 — so the elimination inner loops vectorize cleanly; padded lanes are
/// kept at exactly 0.0, which leaves the arithmetic on real lanes
/// bit-identical to the unpadded layout.  One extra trailing element is a
/// write-only scratch slot: compiled stamp plans map updates whose row or
/// column is the eliminated ground node there, so the stamping loop needs no
/// per-entry ground branches; the slot is never read by the solver.
class DenseMatrix {
 public:
  /// Row stride used for an n x n matrix: n rounded up to a multiple of 4.
  [[nodiscard]] static constexpr std::size_t row_stride(std::size_t n) {
    return (n + 3) & ~static_cast<std::size_t>(3);
  }

  DenseMatrix() = default;
  explicit DenseMatrix(std::size_t n) { resize_zero(n); }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c) { return data_[r * stride_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * stride_ + c]; }

  /// Resize to n x n and zero.  Reuses existing storage when capacity allows,
  /// so a workspace matrix is allocation-free across same-size solves.
  void resize_zero(std::size_t n);

  /// Raw storage (row-major with stride(), scratch slot last).
  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

 private:
  std::size_t n_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> data_ = {0.0};  ///< n * stride + 1; scratch slot at the end
};

/// Solve m x = b by Gaussian elimination with partial pivoting, eliminating
/// `b` alongside `m` (the augmented system) and back-substituting into `x`,
/// which is resized to n with its capacity reused.  Returns false when a
/// pivot's magnitude is below 1e-300 (singular to working precision).
/// Destroys `m` and `b`: the row updates run over whole padded rows so they
/// vectorize, which leaves garbage where the L factors would be.  Throws
/// std::invalid_argument when `b` has fewer than n entries.
[[nodiscard]] bool factor_solve_in_place(DenseMatrix& m, std::span<double> b,
                                         std::vector<double>& x);

}  // namespace glova::spice
