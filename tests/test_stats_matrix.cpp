// Tests for the matrix kernel, eigensolver, PCA and regression.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"
#include "stats/matrix.hpp"
#include "stats/pca.hpp"
#include "stats/regression.hpp"

namespace {

using namespace kooza::stats;
using kooza::sim::Rng;

TEST(Matrix, ConstructionAndAccess) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
    m.at(0, 0) = 7.0;
    EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
    EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
    EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
}

TEST(Matrix, FromRowsValidatesShape) {
    auto m = Matrix::from_rows({{1, 2}, {3, 4}});
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
    EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), std::invalid_argument);
    EXPECT_THROW(Matrix::from_rows({}), std::invalid_argument);
}

TEST(Matrix, SolveLinearSystem) {
    auto a = Matrix::from_rows({{2, 1}, {1, 3}});
    const auto x = Matrix::solve(a, {5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, SolveSingularThrows) {
    auto a = Matrix::from_rows({{1, 2}, {2, 4}});
    EXPECT_THROW(Matrix::solve(a, {1.0, 2.0}), std::runtime_error);
}

TEST(Matrix, CovarianceKnown) {
    // Two perfectly correlated columns.
    auto data = Matrix::from_rows({{1, 2}, {2, 4}, {3, 6}});
    auto cov = covariance_matrix(data);
    EXPECT_NEAR(cov(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(cov(1, 1), 4.0, 1e-12);
    EXPECT_NEAR(cov(0, 1), 2.0, 1e-12);
    EXPECT_NEAR(cov(0, 1), cov(1, 0), 1e-15);
}

TEST(Eigen, DiagonalMatrix) {
    auto d = Matrix::from_rows({{3, 0}, {0, 1}});
    auto e = symmetric_eigen(d);
    EXPECT_NEAR(e.values[0], 3.0, 1e-10);
    EXPECT_NEAR(e.values[1], 1.0, 1e-10);
}

TEST(Eigen, KnownSymmetric) {
    // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
    auto m = Matrix::from_rows({{2, 1}, {1, 2}});
    auto e = symmetric_eigen(m);
    EXPECT_NEAR(e.values[0], 3.0, 1e-10);
    EXPECT_NEAR(e.values[1], 1.0, 1e-10);
    // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
    const auto v = e.vectors.col(0);
    EXPECT_NEAR(std::fabs(v[0]), 1.0 / std::sqrt(2.0), 1e-8);
    EXPECT_NEAR(v[0], v[1], 1e-8);
}

TEST(Eigen, RejectsAsymmetric) {
    auto m = Matrix::from_rows({{1, 2}, {3, 4}});
    EXPECT_THROW(symmetric_eigen(m), std::invalid_argument);
}

TEST(Pca, ExplainsVarianceInOrder) {
    // Data with dominant variance along x.
    Rng rng(1);
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 500; ++i)
        rows.push_back({rng.normal(0.0, 10.0), rng.normal(0.0, 1.0)});
    Pca pca(Matrix::from_rows(rows));
    EXPECT_GT(pca.explained_variance(1), 0.95);
    EXPECT_NEAR(pca.explained_variance(2), 1.0, 1e-12);
    EXPECT_EQ(pca.components_for(0.9), 1u);
}

TEST(Pca, StandardizedIgnoresScale) {
    Rng rng(4);
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 500; ++i)
        rows.push_back({rng.normal(0.0, 1000.0), rng.normal(0.0, 1.0)});
    Pca pca(Matrix::from_rows(rows), /*standardize=*/true);
    // After standardization both dims contribute comparably.
    EXPECT_LT(pca.explained_variance(1), 0.7);
}

TEST(LinearModel, RecoversCoefficients) {
    Rng rng(6);
    std::vector<std::vector<double>> rows;
    std::vector<double> ys;
    for (int i = 0; i < 300; ++i) {
        const double a = rng.uniform(0.0, 10.0), b = rng.uniform(0.0, 5.0);
        rows.push_back({a, b});
        ys.push_back(1.0 + 2.0 * a - 3.0 * b);
    }
    LinearModel m(Matrix::from_rows(rows), ys);
    EXPECT_NEAR(m.coefficients()[0], 1.0, 1e-8);
    EXPECT_NEAR(m.coefficients()[1], 2.0, 1e-8);
    EXPECT_NEAR(m.coefficients()[2], -3.0, 1e-8);
    EXPECT_NEAR(m.r_squared(), 1.0, 1e-10);
    const std::vector<double> x{1.0, 1.0};
    EXPECT_NEAR(m.predict(x), 0.0, 1e-8);
}

TEST(LinearModel, RidgeHandlesCollinearPredictors) {
    // Second predictor is an exact copy of the first: plain least squares
    // is singular; ridge solves and still predicts correctly.
    Rng rng(7);
    std::vector<std::vector<double>> rows;
    std::vector<double> ys;
    for (int i = 0; i < 100; ++i) {
        const double a = rng.uniform(0.0, 10.0);
        rows.push_back({a, a});
        ys.push_back(2.0 + 3.0 * a);
    }
    const auto data = Matrix::from_rows(rows);
    EXPECT_THROW(LinearModel(data, ys), std::runtime_error);  // singular
    LinearModel m(data, ys, 1e-8);
    const std::vector<double> x{4.0, 4.0};
    EXPECT_NEAR(m.predict(x), 14.0, 1e-3);
    EXPECT_NEAR(m.r_squared(), 1.0, 1e-6);
    EXPECT_THROW(LinearModel(data, ys, -1.0), std::invalid_argument);
}

TEST(LinearModel, Validation) {
    auto data = Matrix::from_rows({{1.0, 2.0}, {2.0, 3.0}});
    EXPECT_THROW(LinearModel(data, std::vector<double>{1.0, 2.0}),
                 std::invalid_argument);  // too few observations
}

}  // namespace
