// Parameter estimation for the distribution families in distributions.hpp,
// plus model selection by Kolmogorov-Smirnov distance ("distribution
// fitting through the KS test", Feitelson '02 as surveyed in the paper).
//
// Selection sorts each sample once; every candidate family's KS distance
// is then an exact branch-and-bound scan over that one sorted copy
// (stats::ks_statistic_sorted). The estimators read the sample in its
// original order, since their sums depend on it. A sample holding a NaN or
// an infinity is rejected with std::invalid_argument before any sort.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats/distributions.hpp"

namespace kooza::stats {

/// A fitted distribution with its goodness-of-fit score.
struct Fit {
    std::unique_ptr<Distribution> dist;
    double ks = 1.0;  ///< KS distance of the sample to `dist`
    [[nodiscard]] bool valid() const noexcept { return dist != nullptr; }
};

/// Families fit_best may try.
enum class Family {
    kDeterministic,
    kUniform,
    kExponential,
    kNormal,
    kLogNormal,
    kPareto,
    kWeibull,
    kGamma,
};

[[nodiscard]] std::string family_name(Family f);

/// MLE: lambda = 1/mean. Requires positive mean.
[[nodiscard]] std::unique_ptr<Exponential> fit_exponential(std::span<const double> xs);

/// MLE: sample mean / stddev. Requires at least two distinct values.
[[nodiscard]] std::unique_ptr<Normal> fit_normal(std::span<const double> xs);

/// MLE on logs. Requires strictly positive data.
[[nodiscard]] std::unique_ptr<LogNormal> fit_lognormal(std::span<const double> xs);

/// MLE: xm = min(x), alpha = n / sum(log(x/xm)). Requires positive data.
[[nodiscard]] std::unique_ptr<Pareto> fit_pareto(std::span<const double> xs);

/// MLE: bracketed Newton on the shape equation over logs shifted by
/// their maximum, so the shape does not depend on the data's units.
/// Requires positive data whose logs are not all equal.
[[nodiscard]] std::unique_ptr<Weibull> fit_weibull(std::span<const double> xs);

/// Method of moments: shape = mean^2/var, scale = var/mean.
[[nodiscard]] std::unique_ptr<Gamma> fit_gamma(std::span<const double> xs);

/// Min/max with a small margin so observed extremes get nonzero density.
[[nodiscard]] std::unique_ptr<Uniform> fit_uniform(std::span<const double> xs);

/// Fit each candidate family (skipping ones whose preconditions the data
/// violates), score each by its exact KS distance, and return them sorted
/// best-first by a stable sort, so equal distances keep `families` order.
/// A Deterministic fit is returned alone if the sample is constant.
/// Throws std::invalid_argument on an empty sample or a non-finite value.
[[nodiscard]] std::vector<Fit> fit_all(std::span<const double> xs,
                                       std::span<const Family> families);

/// Best single fit across the default family set, tried in this order:
/// exponential, normal, lognormal, pareto, weibull, gamma, uniform. The
/// result is fit_all(xs, that set).front(): a tie goes to the earlier
/// family. A family's KS scan stops as soon as it cannot beat the best
/// family so far, so only the winner's distance is always computed in
/// full. Throws std::invalid_argument on an empty sample or a non-finite
/// value.
[[nodiscard]] Fit fit_best(std::span<const double> xs);

/// Like fit_best but falls back to an Empirical distribution when the best
/// parametric KS distance exceeds `ks_threshold`. A family's scan also
/// stops once its distance cannot come in at or under the threshold.
[[nodiscard]] std::unique_ptr<Distribution> fit_or_empirical(
    std::span<const double> xs, double ks_threshold = 0.08);

}  // namespace kooza::stats
