#include "stats/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace kooza::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    if (rows == 0 || cols == 0) throw std::invalid_argument("Matrix: zero dimension");
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
    if (rows.empty() || rows.front().empty())
        throw std::invalid_argument("Matrix::from_rows: empty data");
    Matrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != m.cols_)
            throw std::invalid_argument("Matrix::from_rows: ragged rows");
        for (std::size_t c = 0; c < m.cols_; ++c) m.at(r, c) = rows[r][c];
    }
    return m;
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
    return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

std::span<const double> Matrix::row(std::size_t r) const {
    if (r >= rows_) throw std::out_of_range("Matrix::row");
    return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::col(std::size_t c) const {
    if (c >= cols_) throw std::out_of_range("Matrix::col");
    std::vector<double> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = at(r, c);
    return out;
}

std::vector<double> Matrix::solve(Matrix a, std::vector<double> b) {
    if (a.rows_ != a.cols_) throw std::invalid_argument("Matrix::solve: non-square");
    if (b.size() != a.rows_) throw std::invalid_argument("Matrix::solve: rhs size");
    const std::size_t n = a.rows_;
    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivot.
        std::size_t piv = k;
        for (std::size_t r = k + 1; r < n; ++r)
            if (std::fabs(a.at(r, k)) > std::fabs(a.at(piv, k))) piv = r;
        if (std::fabs(a.at(piv, k)) < 1e-12)
            throw std::runtime_error("Matrix::solve: singular matrix");
        if (piv != k) {
            for (std::size_t c = 0; c < n; ++c) std::swap(a.at(k, c), a.at(piv, c));
            std::swap(b[k], b[piv]);
        }
        for (std::size_t r = k + 1; r < n; ++r) {
            const double f = a.at(r, k) / a.at(k, k);
            if (f == 0.0) continue;
            for (std::size_t c = k; c < n; ++c) a.at(r, c) -= f * a.at(k, c);
            b[r] -= f * b[k];
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t ri = n; ri-- > 0;) {
        double s = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c) s -= a.at(ri, c) * x[c];
        x[ri] = s / a.at(ri, ri);
    }
    return x;
}

std::vector<double> column_means(const Matrix& data) {
    std::vector<double> m(data.cols(), 0.0);
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t c = 0; c < data.cols(); ++c) m[c] += data.at(r, c);
    for (auto& x : m) x /= double(data.rows());
    return m;
}

Matrix covariance_matrix(const Matrix& data) {
    if (data.rows() < 2)
        throw std::invalid_argument("covariance_matrix: need >= 2 observations");
    const auto mu = column_means(data);
    Matrix cov(data.cols(), data.cols());
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t i = 0; i < data.cols(); ++i) {
            const double di = data.at(r, i) - mu[i];
            for (std::size_t j = i; j < data.cols(); ++j)
                cov.at(i, j) += di * (data.at(r, j) - mu[j]);
        }
    const double norm = 1.0 / double(data.rows() - 1);
    for (std::size_t i = 0; i < data.cols(); ++i)
        for (std::size_t j = i; j < data.cols(); ++j) {
            cov.at(i, j) *= norm;
            cov.at(j, i) = cov.at(i, j);
        }
    return cov;
}

EigenResult symmetric_eigen(const Matrix& sym, int max_sweeps) {
    if (sym.rows() != sym.cols())
        throw std::invalid_argument("symmetric_eigen: non-square");
    const std::size_t n = sym.rows();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            if (std::fabs(sym.at(i, j) - sym.at(j, i)) >
                1e-9 * std::max(1.0, std::fabs(sym.at(i, j))))
                throw std::invalid_argument("symmetric_eigen: matrix not symmetric");

    Matrix a = sym;
    Matrix v = Matrix::identity(n);
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        double off = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j) off += a.at(i, j) * a.at(i, j);
        if (off < 1e-22) break;
        for (std::size_t p = 0; p < n; ++p)
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a.at(p, q);
                if (std::fabs(apq) < 1e-300) continue;
                const double theta = (a.at(q, q) - a.at(p, p)) / (2.0 * apq);
                const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                                 (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (std::size_t k = 0; k < n; ++k) {
                    const double akp = a.at(k, p), akq = a.at(k, q);
                    a.at(k, p) = c * akp - s * akq;
                    a.at(k, q) = s * akp + c * akq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double apk = a.at(p, k), aqk = a.at(q, k);
                    a.at(p, k) = c * apk - s * aqk;
                    a.at(q, k) = s * apk + c * aqk;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = v.at(k, p), vkq = v.at(k, q);
                    v.at(k, p) = c * vkp - s * vkq;
                    v.at(k, q) = s * vkp + c * vkq;
                }
            }
    }
    // Sort eigenpairs descending by eigenvalue.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t i, std::size_t j) { return a.at(i, i) > a.at(j, j); });
    EigenResult out{std::vector<double>(n), Matrix(n, n)};
    for (std::size_t c = 0; c < n; ++c) {
        out.values[c] = a.at(order[c], order[c]);
        for (std::size_t r = 0; r < n; ++r) out.vectors.at(r, c) = v.at(r, order[c]);
    }
    return out;
}

}  // namespace kooza::stats
