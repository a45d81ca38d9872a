// Small dense matrix for the multivariate statistics (PCA, regression).
// Row-major, double precision, no SIMD heroics — feature spaces here are
// a handful of dimensions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace kooza::stats {

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /// Build from nested initializer-like data; all rows must be equal length.
    static Matrix from_rows(const std::vector<std::vector<double>>& rows);
    static Matrix identity(std::size_t n);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] double& at(std::size_t r, std::size_t c);
    [[nodiscard]] double at(std::size_t r, std::size_t c) const;
    double& operator()(std::size_t r, std::size_t c) { return at(r, c); }
    double operator()(std::size_t r, std::size_t c) const { return at(r, c); }

    [[nodiscard]] std::span<const double> row(std::size_t r) const;
    [[nodiscard]] std::vector<double> col(std::size_t c) const;

    /// Solve A x = b by Gaussian elimination with partial pivoting.
    /// Throws std::runtime_error if A is singular (pivot below 1e-12 scale).
    [[nodiscard]] static std::vector<double> solve(Matrix a, std::vector<double> b);

private:
    std::size_t rows_ = 0, cols_ = 0;
    std::vector<double> data_;
};

/// Column means of a data matrix (rows = observations).
[[nodiscard]] std::vector<double> column_means(const Matrix& data);

/// Sample covariance matrix (rows = observations, unbiased n-1 normalizer).
/// Requires >= 2 rows.
[[nodiscard]] Matrix covariance_matrix(const Matrix& data);

/// Symmetric eigendecomposition by cyclic Jacobi rotations.
/// Returns eigenvalues (descending) and matching unit eigenvectors as
/// matrix columns. Input must be symmetric.
struct EigenResult {
    std::vector<double> values;
    Matrix vectors;  ///< column i is the eigenvector for values[i]
};
[[nodiscard]] EigenResult symmetric_eigen(const Matrix& sym, int max_sweeps = 100);

}  // namespace kooza::stats
