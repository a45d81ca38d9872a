// Multiple linear regression (OLS), one of the paper's suggested
// dimensionality-reduction tools: core::correlation_report fits request
// latency on the other Table 2 features with it.
#pragma once

#include <span>
#include <vector>

#include "stats/matrix.hpp"

namespace kooza::stats {

/// Multiple linear regression y = b0 + b1 x1 + ... via the normal
/// equations, with optional scale-invariant ridge regularization.
class LinearModel {
public:
    /// `data`: rows = observations, cols = predictors; `ys`: responses.
    /// `ridge` adds ridge * diag(X'X) to the normal equations (intercept
    /// excluded) — use a small value (e.g. 1e-6) when predictors may be
    /// collinear; 0 gives exact least squares.
    LinearModel(const Matrix& data, std::span<const double> ys, double ridge = 0.0);

    /// Coefficients [b0, b1, ..., bd] (b0 is the intercept).
    [[nodiscard]] const std::vector<double>& coefficients() const noexcept {
        return beta_;
    }
    [[nodiscard]] double r_squared() const noexcept { return r2_; }
    [[nodiscard]] double predict(std::span<const double> x) const;

private:
    std::vector<double> beta_;
    double r2_ = 0.0;
};

}  // namespace kooza::stats
