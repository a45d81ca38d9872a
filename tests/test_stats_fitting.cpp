// Tests for parameter estimation and KS-based model selection: each
// estimator must recover known parameters from synthetic samples, and
// fit_best must identify the generating family.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "sim/rng.hpp"
#include "stats/empirical.hpp"
#include "stats/fitting.hpp"

namespace {

using namespace kooza::stats;
using kooza::sim::Rng;

std::vector<double> draw(const Distribution& d, int n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto& x : xs) x = d.sample(rng);
    return xs;
}

TEST(FitExponential, RecoversRate) {
    Exponential truth(2.5);
    auto fit = fit_exponential(draw(truth, 20000, 1));
    EXPECT_NEAR(fit->lambda(), 2.5, 0.1);
}

TEST(FitExponential, RejectsBadInput) {
    EXPECT_THROW(fit_exponential({}), std::invalid_argument);
    const std::vector<double> neg{-1.0, -2.0};
    EXPECT_THROW(fit_exponential(neg), std::invalid_argument);
}

TEST(FitNormal, RecoversParams) {
    Normal truth(10.0, 3.0);
    auto fit = fit_normal(draw(truth, 20000, 2));
    EXPECT_NEAR(fit->mean(), 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(fit->variance()), 3.0, 0.1);
}

TEST(FitNormal, ConstantRejected) {
    const std::vector<double> xs{5.0, 5.0, 5.0};
    EXPECT_THROW(fit_normal(xs), std::invalid_argument);
}

TEST(FitLogNormal, RecoversParams) {
    LogNormal truth(1.0, 0.4);
    auto fit = fit_lognormal(draw(truth, 20000, 3));
    EXPECT_NEAR(fit->mu(), 1.0, 0.05);
    EXPECT_NEAR(fit->sigma(), 0.4, 0.05);
}

TEST(FitLogNormal, NegativeDataRejected) {
    const std::vector<double> xs{1.0, -1.0};
    EXPECT_THROW(fit_lognormal(xs), std::invalid_argument);
}

TEST(FitPareto, RecoversParams) {
    Pareto truth(2.0, 3.0);
    auto fit = fit_pareto(draw(truth, 20000, 4));
    EXPECT_NEAR(fit->xm(), 2.0, 0.01);
    EXPECT_NEAR(fit->alpha(), 3.0, 0.15);
}

TEST(FitWeibull, RecoversParams) {
    Weibull truth(1.7, 3.0);
    auto fit = fit_weibull(draw(truth, 20000, 5));
    EXPECT_NEAR(fit->shape(), 1.7, 0.1);
    EXPECT_NEAR(fit->scale(), 3.0, 0.1);
}

TEST(FitWeibull, ShapeIsUnitInvariant) {
    // The same sample in seconds, milliseconds, ... must fit the same
    // shape and a scale in its own unit, including far from 1 where x^k
    // under- or overflows.
    const auto base = draw(Weibull(30.0, 1.0), 2000, 5);
    const auto ref = fit_weibull(base);
    EXPECT_NEAR(ref->shape(), 30.0, 1.5);
    for (double c : {1e-6, 1e-3, 1.0, 1e3, 1e6}) {
        auto xs = base;
        for (double& x : xs) x *= c;
        const auto fit = fit_weibull(xs);
        EXPECT_NEAR(fit->shape(), ref->shape(), 1e-9 * ref->shape()) << "c=" << c;
        EXPECT_NEAR(fit->scale(), c * ref->scale(), 1e-9 * c * ref->scale()) << "c=" << c;
    }
    const auto steep = fit_weibull(draw(Weibull(60.0, 1e6), 2000, 5));
    EXPECT_NEAR(steep->shape(), 60.0, 0.05 * 60.0);
}

TEST(FitWeibull, RejectsSampleWithEqualLogs) {
    // Two values one ulp apart whose logs round to the same double: the
    // shape equation has no root, so the sample counts as constant.
    const double a = 1e300, b = std::nextafter(a, 2e300);
    ASSERT_EQ(std::log(a), std::log(b));
    const std::vector<double> equal_logs{a, b, a}, constant{5.0, 5.0};
    EXPECT_THROW(fit_weibull(equal_logs), std::invalid_argument);
    EXPECT_THROW(fit_weibull(constant), std::invalid_argument);
}

TEST(FitGamma, RecoversParams) {
    Gamma truth(4.0, 1.5);
    auto fit = fit_gamma(draw(truth, 20000, 6));
    EXPECT_NEAR(fit->mean(), 6.0, 0.2);
    EXPECT_NEAR(fit->variance(), 9.0, 0.7);
}

TEST(FitUniform, CoversSample) {
    Uniform truth(3.0, 8.0);
    auto fit = fit_uniform(draw(truth, 5000, 7));
    EXPECT_NEAR(fit->lo(), 3.0, 0.05);
    EXPECT_NEAR(fit->hi(), 8.0, 0.05);
}

struct BestCase {
    std::string expected;
    std::function<std::unique_ptr<Distribution>()> make;
};

class FitBestIdentifies : public ::testing::TestWithParam<std::string> {};

TEST_P(FitBestIdentifies, GeneratingFamilyWins) {
    const std::string which = GetParam();
    std::unique_ptr<Distribution> truth;
    if (which == "exponential") truth = std::make_unique<Exponential>(1.0);
    if (which == "normal") truth = std::make_unique<Normal>(50.0, 5.0);
    if (which == "pareto") truth = std::make_unique<Pareto>(1.0, 1.2);
    if (which == "uniform") truth = std::make_unique<Uniform>(10.0, 20.0);
    ASSERT_NE(truth, nullptr);
    auto best = fit_best(draw(*truth, 8000, 42));
    if (which == "exponential") {
        // Weibull(1, s) and Gamma(1, s) coincide with the exponential; any
        // of the three may win the KS race on a finite sample.
        EXPECT_TRUE(best.dist->name() == "exponential" ||
                    best.dist->name() == "weibull" || best.dist->name() == "gamma")
            << best.dist->describe();
    } else {
        EXPECT_EQ(best.dist->name(), which);
    }
    EXPECT_LT(best.ks, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Families, FitBestIdentifies,
                         ::testing::Values("exponential", "normal", "pareto",
                                           "uniform"),
                         [](const auto& info) { return info.param; });

TEST(FitAll, SortedByKs) {
    Exponential truth(1.0);
    const Family fams[] = {Family::kExponential, Family::kNormal, Family::kUniform};
    auto fits = fit_all(draw(truth, 4000, 8), fams);
    ASSERT_GE(fits.size(), 2u);
    for (std::size_t i = 1; i < fits.size(); ++i)
        EXPECT_LE(fits[i - 1].ks, fits[i].ks);
}

TEST(FitAll, ConstantSampleGivesDeterministic) {
    const std::vector<double> xs{7.0, 7.0, 7.0};
    const Family fams[] = {Family::kExponential, Family::kNormal};
    auto fits = fit_all(xs, fams);
    ASSERT_EQ(fits.size(), 1u);
    EXPECT_EQ(fits[0].dist->name(), "deterministic");
    EXPECT_DOUBLE_EQ(fits[0].ks, 0.0);
}

TEST(FitAll, SkipsInapplicableFamilies) {
    // Data with negatives: lognormal/pareto/weibull must be skipped, not throw.
    Normal truth(0.0, 1.0);
    const Family fams[] = {Family::kLogNormal, Family::kPareto, Family::kWeibull,
                           Family::kNormal};
    auto fits = fit_all(draw(truth, 2000, 9), fams);
    ASSERT_EQ(fits.size(), 1u);
    EXPECT_EQ(fits[0].dist->name(), "normal");
}

TEST(FitOrEmpirical, ParametricWhenGoodFit) {
    Exponential truth(2.0);
    auto d = fit_or_empirical(draw(truth, 5000, 10), 0.05);
    // Must stay parametric (exponential or a generalization), not empirical.
    EXPECT_NE(d->name(), "empirical");
    EXPECT_NEAR(d->mean(), 0.5, 0.05);
}

TEST(FitOrEmpirical, EmpiricalFallbackOnMixture) {
    // Strongly bimodal data fits no single family well.
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 2000; ++i)
        xs.push_back(rng.bernoulli(0.5) ? rng.normal(1.0, 0.01)
                                        : rng.normal(100.0, 0.01));
    auto d = fit_or_empirical(xs, 0.05);
    EXPECT_EQ(d->name(), "empirical");
}

TEST(FitOrEmpirical, ConstantGivesDeterministic) {
    const std::vector<double> xs{4.0, 4.0};
    auto d = fit_or_empirical(xs);
    EXPECT_EQ(d->name(), "deterministic");
}

/// fit_best's family order.
const Family kSeven[] = {Family::kExponential, Family::kNormal, Family::kLogNormal,
                         Family::kPareto,      Family::kWeibull, Family::kGamma,
                         Family::kUniform};

TEST(FitBest, EqualsFrontOfFitAll) {
    // fit_best stops a family's scan once it cannot win; it must still
    // pick what scoring every family in full picks, with the same D.
    Rng rng(12);
    std::vector<std::vector<double>> samples{
        draw(Exponential(1.0), 3000, 13), draw(Normal(50.0, 5.0), 2000, 14),
        draw(LogNormal(1.0, 0.7), 2500, 15), draw(Pareto(1.0, 1.2), 4000, 16),
        draw(Weibull(1.7, 3.0), 1500, 17),   draw(Gamma(4.0, 1.5), 3000, 18),
        draw(Uniform(10.0, 20.0), 2000, 19), draw(Gamma(0.6, 2.0), 17, 20)};
    std::vector<double> ties, bimodal;
    for (int i = 0; i < 3000; ++i) {
        ties.push_back(4096.0 * double(1 + rng.uniform_int(0, 31)));
        bimodal.push_back(rng.bernoulli(0.4) ? rng.normal(2.0, 0.2)
                                             : rng.normal(9.0, 1.0));
    }
    samples.push_back(std::move(ties));
    samples.push_back(std::move(bimodal));
    samples.push_back({1.0, 2.0});
    samples.push_back({3.0, 1.0, 2.0});
    for (const auto& xs : samples) {
        const auto best = fit_best(xs);
        const auto all = fit_all(xs, kSeven);
        ASSERT_FALSE(all.empty());
        EXPECT_EQ(best.dist->describe(), all.front().dist->describe());
        EXPECT_EQ(best.ks, all.front().ks);
    }
}

TEST(FitAll, TieKeepsEarlierFamily) {
    // n-1 ones and one huge value: both the exponential and the Pareto fit
    // put F(1) at exactly 0, so both distances are exactly (n-1)/n.
    std::vector<double> xs(9, 1.0);
    xs.push_back(1e150);
    const Family exp_first[] = {Family::kExponential, Family::kPareto};
    const Family pareto_first[] = {Family::kPareto, Family::kExponential};
    const auto a = fit_all(xs, exp_first);
    const auto b = fit_all(xs, pareto_first);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(a[0].ks, 0.9);
    EXPECT_EQ(a[0].ks, a[1].ks);
    EXPECT_EQ(a[0].dist->name(), "exponential");
    EXPECT_EQ(b[0].dist->name(), "pareto");
}

TEST(FitSelection, RejectsNonFiniteValues) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> with_nan{1.0, 2.0, nan}, with_inf{1.0, inf};
    for (const auto* xs : {&with_nan, &with_inf}) {
        EXPECT_THROW((void)fit_all(*xs, kSeven), std::invalid_argument);
        EXPECT_THROW((void)fit_best(*xs), std::invalid_argument);
        EXPECT_THROW((void)fit_or_empirical(*xs), std::invalid_argument);
    }
    try {
        (void)fit_or_empirical(with_inf);
        FAIL() << "no throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
            << e.what();
    }
}

TEST(FamilyName, AllNamed) {
    EXPECT_EQ(family_name(Family::kExponential), "exponential");
    EXPECT_EQ(family_name(Family::kDeterministic), "deterministic");
    EXPECT_EQ(family_name(Family::kGamma), "gamma");
}

}  // namespace
