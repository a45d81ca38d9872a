#include "stats/pca.hpp"

#include <cmath>
#include <stdexcept>

namespace kooza::stats {

Pca::Pca(const Matrix& data, bool standardize) {
    const auto means = column_means(data);
    Matrix centered(data.rows(), data.cols());
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t c = 0; c < data.cols(); ++c)
            centered.at(r, c) = data.at(r, c) - means[c];
    if (standardize) {
        for (std::size_t c = 0; c < data.cols(); ++c) {
            double ss = 0.0;
            for (std::size_t r = 0; r < data.rows(); ++r)
                ss += centered.at(r, c) * centered.at(r, c);
            const double sd = std::sqrt(ss / double(data.rows() - 1));
            if (sd > 0.0)
                for (std::size_t r = 0; r < data.rows(); ++r) centered.at(r, c) /= sd;
        }
    }
    eigenvalues_ = symmetric_eigen(covariance_matrix(centered)).values;
    // Clamp tiny negative eigenvalues produced by round-off.
    for (auto& v : eigenvalues_)
        if (v < 0.0 && v > -1e-10) v = 0.0;
}

double Pca::explained_variance(std::size_t k) const {
    if (k > eigenvalues_.size()) throw std::out_of_range("Pca::explained_variance");
    double total = 0.0, head = 0.0;
    for (std::size_t i = 0; i < eigenvalues_.size(); ++i) {
        total += eigenvalues_[i];
        if (i < k) head += eigenvalues_[i];
    }
    return total > 0.0 ? head / total : 0.0;
}

std::size_t Pca::components_for(double target) const {
    if (!(target > 0.0 && target <= 1.0))
        throw std::invalid_argument("Pca::components_for: target in (0,1]");
    for (std::size_t k = 1; k <= eigenvalues_.size(); ++k)
        if (explained_variance(k) >= target - 1e-12) return k;
    return eigenvalues_.size();
}

}  // namespace kooza::stats
