// Tests for the KS distances and the special functions behind the fits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "sim/rng.hpp"
#include "stats/distributions.hpp"
#include "stats/fitting.hpp"
#include "stats/hypothesis.hpp"
#include "stats/special.hpp"

namespace {

using namespace kooza::stats;
using kooza::sim::Rng;

std::vector<double> draw(const Distribution& d, int n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto& x : xs) x = d.sample(rng);
    return xs;
}

/// The full KS scan: every point's CDF, in sample order. ks_statistic's
/// branch and bound must return exactly this double.
double ks_full_scan(std::span<const double> xs, const Distribution& dist) {
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    const double n = double(s.size());
    double d = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const double f = dist.cdf(s[i]);
        d = std::max(d, std::fabs(double(i + 1) / n - f));
        d = std::max(d, std::fabs(f - double(i) / n));
    }
    return d;
}

/// Samples that stress the kernel: tiny n, one large n, heavy ties, a
/// Pareto tail, a bimodal mix and points around x = 4, where Gamma(3, 1)'s
/// gamma_p switches from its series to its continued fraction (x = a + 1).
std::vector<std::pair<std::string, std::vector<double>>> kernel_samples() {
    std::vector<std::pair<std::string, std::vector<double>>> out;
    const Gamma g3(3.0, 1.0);
    for (int n : {1, 2, 3, 17, 5000})
        out.emplace_back("gamma n=" + std::to_string(n), draw(g3, n, 100 + n));
    Rng rng(7);
    std::vector<double> ties;
    for (int i = 0; i < 3000; ++i)
        ties.push_back(4096.0 * double(1 + rng.uniform_int(0, 15)));
    out.emplace_back("4 KB ties", std::move(ties));
    out.emplace_back("pareto tail", draw(Pareto(1.0, 0.9), 4000, 8));
    std::vector<double> bimodal;
    for (int i = 0; i < 3000; ++i)
        bimodal.push_back(rng.bernoulli(0.3) ? rng.normal(5.0, 0.5)
                                             : rng.normal(40.0, 4.0));
    out.emplace_back("bimodal", std::move(bimodal));
    std::vector<double> straddle;
    for (int i = 0; i < 2000; ++i) straddle.push_back(3.9 + 0.2 * rng.uniform(0.0, 1.0));
    out.emplace_back("straddle a+1", std::move(straddle));
    return out;
}

/// Fixed members of every family, plus each family fitted to `xs`.
std::vector<std::unique_ptr<Distribution>> kernel_dists(std::span<const double> xs) {
    std::vector<std::unique_ptr<Distribution>> out;
    out.push_back(std::make_unique<Uniform>(0.0, 10.0));
    out.push_back(std::make_unique<Exponential>(0.4));
    out.push_back(std::make_unique<Normal>(3.0, 1.5));
    out.push_back(std::make_unique<LogNormal>(1.0, 0.5));
    out.push_back(std::make_unique<Pareto>(1.0, 1.5));
    out.push_back(std::make_unique<Weibull>(1.5, 3.0));
    out.push_back(std::make_unique<Gamma>(3.0, 1.0));
    out.push_back(std::make_unique<Gamma>(4.0, 1.0));
    out.push_back(std::make_unique<Deterministic>(3.0));
    const Family all[] = {Family::kUniform, Family::kExponential, Family::kNormal,
                          Family::kLogNormal, Family::kPareto, Family::kWeibull,
                          Family::kGamma};
    for (auto& fit : fit_all(xs, all)) out.push_back(std::move(fit.dist));
    return out;
}

TEST(KsKernel, EqualsFullScanExactly) {
    std::size_t pairs = 0;
    for (const auto& [name, xs] : kernel_samples())
        for (const auto& dist : kernel_dists(xs)) {
            EXPECT_EQ(ks_statistic(xs, *dist), ks_full_scan(xs, *dist))
                << name << " vs " << dist->describe();
            ++pairs;
        }
    EXPECT_GT(pairs, 100u);
}

TEST(KsKernel, CutoffReturnsExactBelowAndAtLeastCutoffAbove) {
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto& [name, xs] : kernel_samples()) {
        std::vector<double> sorted(xs);
        std::sort(sorted.begin(), sorted.end());
        for (const auto& dist : kernel_dists(xs)) {
            const double d = ks_full_scan(xs, *dist);
            for (double cutoff : {0.0, d / 2, d, std::nextafter(d, inf), 2 * d + 1e-9,
                                  inf}) {
                const double got = ks_statistic_sorted(sorted, *dist, cutoff);
                if (d < cutoff)
                    EXPECT_EQ(got, d) << name << " " << dist->describe() << " " << cutoff;
                else
                    EXPECT_GE(got, cutoff) << name << " " << dist->describe();
            }
        }
    }
}

TEST(KsKernel, RejectsNonFiniteValues) {
    const Exponential e(1.0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> with_nan{1.0, 2.0, nan}, with_inf{1.0, inf};
    const std::vector<double> finite{1.0, 2.0, 3.0};
    for (const auto* xs : {&with_nan, &with_inf}) {
        EXPECT_THROW((void)ks_statistic(*xs, e), std::invalid_argument);
        EXPECT_THROW((void)ks_statistic_two_sample(*xs, finite), std::invalid_argument);
        EXPECT_THROW((void)ks_statistic_two_sample(finite, *xs), std::invalid_argument);
    }
    try {
        (void)ks_statistic(with_nan, e);
        FAIL() << "no throw";
    } catch (const std::invalid_argument& err) {
        EXPECT_NE(std::string(err.what()).find("non-finite"), std::string::npos)
            << err.what();
    }
    EXPECT_THROW((void)ks_statistic_sorted({}, e), std::invalid_argument);
}

TEST(Special, NormalCdfKnownValues) {
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(Special, NormalQuantileInvertsCdf) {
    for (double p : {0.01, 0.1, 0.5, 0.9, 0.99})
        EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-8);
    EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
    EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
}

TEST(Special, GammaPBoundaries) {
    EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
    EXPECT_NEAR(gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
    EXPECT_NEAR(gamma_p(2.0, 100.0), 1.0, 1e-10);
    EXPECT_THROW((void)gamma_p(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)gamma_p(1.0, -1.0), std::invalid_argument);
}

TEST(KsStatistic, ExactSmallSample) {
    // Sample {0.5} vs U(0,1): ECDF jumps 0 -> 1 at 0.5, so D = 0.5.
    Uniform u(0.0, 1.0);
    const std::vector<double> xs{0.5};
    EXPECT_DOUBLE_EQ(ks_statistic(xs, u), 0.5);
    EXPECT_THROW((void)ks_statistic({}, u), std::invalid_argument);
}

// Asymptotic two-sample critical value of D for two samples of n points:
// c(alpha) * sqrt(2 / n), with c = 1.63 at alpha = 0.01 and 1.95 at 0.001.
double ks_two_sample_critical(double c_alpha, int n) {
    return c_alpha * std::sqrt(2.0 / double(n));
}

TEST(KsTwoSample, SameSourceAccepted) {
    Normal d(0.0, 1.0);
    const double dist = ks_statistic_two_sample(draw(d, 1500, 3), draw(d, 1500, 4));
    EXPECT_LT(dist, ks_two_sample_critical(1.63, 1500));
}

TEST(KsTwoSample, ShiftedSourceRejected) {
    // Two unit normals one sigma apart: D = 2 * Phi(0.5) - 1 = 0.383.
    Normal a(0.0, 1.0), b(1.0, 1.0);
    const double dist = ks_statistic_two_sample(draw(a, 1500, 5), draw(b, 1500, 6));
    EXPECT_GT(dist, ks_two_sample_critical(1.95, 1500));
    EXPECT_NEAR(dist, 2.0 * normal_cdf(0.5) - 1.0, 0.05);
}

TEST(KsTwoSample, IdenticalSamplesZeroStatistic) {
    const std::vector<double> xs{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(ks_statistic_two_sample(xs, xs), 0.0);
}

}  // namespace
