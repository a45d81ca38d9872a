#include "stats/regression.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace kooza::stats {

LinearModel::LinearModel(const Matrix& data, std::span<const double> ys, double ridge) {
    if (ys.size() != data.rows())
        throw std::invalid_argument("LinearModel: response length mismatch");
    if (data.rows() <= data.cols() + 1)
        throw std::invalid_argument("LinearModel: need more observations than predictors");
    if (ridge < 0.0) throw std::invalid_argument("LinearModel: negative ridge");
    const std::size_t n = data.rows(), d = data.cols() + 1;  // +1 intercept
    // Normal equations X'X beta = X'y with X = [1 | data].
    Matrix xtx(d, d);
    std::vector<double> xty(d, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x(d, 1.0);
        for (std::size_t c = 0; c < data.cols(); ++c) x[c + 1] = data.at(i, c);
        for (std::size_t a = 0; a < d; ++a) {
            xty[a] += x[a] * ys[i];
            for (std::size_t b = 0; b < d; ++b) xtx.at(a, b) += x[a] * x[b];
        }
    }
    // Scale-invariant ridge: inflate each predictor's diagonal entry
    // proportionally (keeps collinear feature sets solvable).
    for (std::size_t a = 1; a < d; ++a) xtx.at(a, a) *= 1.0 + ridge;
    beta_ = Matrix::solve(xtx, xty);
    // R^2.
    const double my = mean(ys);
    double ss_res = 0.0, ss_tot = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(data.row(i).begin(), data.row(i).end());
        const double e = ys[i] - predict(row);
        ss_res += e * e;
        ss_tot += (ys[i] - my) * (ys[i] - my);
    }
    r2_ = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
}

double LinearModel::predict(std::span<const double> x) const {
    if (x.size() + 1 != beta_.size())
        throw std::invalid_argument("LinearModel::predict: dimension mismatch");
    double y = beta_[0];
    for (std::size_t c = 0; c < x.size(); ++c) y += beta_[c + 1] * x[c];
    return y;
}

}  // namespace kooza::stats
