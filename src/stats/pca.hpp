// Principal component analysis.
//
// The paper proposes PCA/SVD/sampling/regression to "reduce the
// dimensionality of feature-space to the ones necessary for a
// representative and succinct model" (Section 4); Abrahao '04 uses PCA to
// categorize CPU-utilization trace data. This is a covariance-matrix PCA
// on top of the Jacobi eigensolver in matrix.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/matrix.hpp"

namespace kooza::stats {

class Pca {
public:
    /// Fit on a data matrix (rows = observations, cols = features).
    /// If `standardize` is true, features are scaled to unit variance
    /// (correlation-matrix PCA); zero-variance features are left unscaled.
    explicit Pca(const Matrix& data, bool standardize = false);

    /// Fraction of total variance captured by the first k components.
    [[nodiscard]] double explained_variance(std::size_t k) const;

    /// Smallest k whose cumulative explained variance reaches `target`.
    [[nodiscard]] std::size_t components_for(double target) const;

private:
    std::vector<double> eigenvalues_;  ///< of the (co)variance matrix, descending
};

}  // namespace kooza::stats
