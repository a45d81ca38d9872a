#include "stats/fitting.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/empirical.hpp"
#include "stats/hypothesis.hpp"

namespace kooza::stats {

namespace {

bool all_positive(std::span<const double> xs) {
    return std::all_of(xs.begin(), xs.end(), [](double x) { return x > 0.0; });
}

}  // namespace

std::string family_name(Family f) {
    switch (f) {
        case Family::kDeterministic: return "deterministic";
        case Family::kUniform: return "uniform";
        case Family::kExponential: return "exponential";
        case Family::kNormal: return "normal";
        case Family::kLogNormal: return "lognormal";
        case Family::kPareto: return "pareto";
        case Family::kWeibull: return "weibull";
        case Family::kGamma: return "gamma";
    }
    return "unknown";
}

std::unique_ptr<Exponential> fit_exponential(std::span<const double> xs) {
    require_nonempty(xs, "fit_exponential");
    const double m = mean(xs);
    if (!(m > 0.0)) throw std::invalid_argument("fit_exponential: mean must be > 0");
    return std::make_unique<Exponential>(1.0 / m);
}

std::unique_ptr<Normal> fit_normal(std::span<const double> xs) {
    require_nonempty(xs, "fit_normal");
    const double sd = stddev(xs);
    if (!(sd > 0.0)) throw std::invalid_argument("fit_normal: zero variance");
    return std::make_unique<Normal>(mean(xs), sd);
}

std::unique_ptr<LogNormal> fit_lognormal(std::span<const double> xs) {
    require_nonempty(xs, "fit_lognormal");
    if (!all_positive(xs))
        throw std::invalid_argument("fit_lognormal: data must be positive");
    std::vector<double> logs;
    logs.reserve(xs.size());
    for (double x : xs) logs.push_back(std::log(x));
    const double sd = stddev(logs);
    if (!(sd > 0.0)) throw std::invalid_argument("fit_lognormal: zero log-variance");
    return std::make_unique<LogNormal>(mean(logs), sd);
}

std::unique_ptr<Pareto> fit_pareto(std::span<const double> xs) {
    require_nonempty(xs, "fit_pareto");
    if (!all_positive(xs)) throw std::invalid_argument("fit_pareto: data must be positive");
    const double xm = *std::min_element(xs.begin(), xs.end());
    double s = 0.0;
    for (double x : xs) s += std::log(x / xm);
    if (!(s > 0.0)) throw std::invalid_argument("fit_pareto: degenerate sample");
    return std::make_unique<Pareto>(xm, double(xs.size()) / s);
}

std::unique_ptr<Weibull> fit_weibull(std::span<const double> xs) {
    require_nonempty(xs, "fit_weibull");
    if (!all_positive(xs))
        throw std::invalid_argument("fit_weibull: data must be positive");
    // The MLE shape k is the root of
    //   g(k) = sum(e^{k u} u) / sum(e^{k u}) - 1/k - mean(u),  u = ln x - max ln x.
    // Shifting the logs leaves g as it is, keeps every e^{k u} at or below
    // 1 and makes k independent of the data's units. g rises strictly from
    // -inf (k -> 0) to -mean(u) > 0 (k -> inf), so its one root is
    // bracketed by every evaluation: Newton steps that would leave the
    // bracket split it geometrically instead, or double k while it is
    // unbounded above.
    std::vector<double> u;
    u.reserve(xs.size());
    for (double x : xs) u.push_back(std::log(x));
    const auto [min_it, max_it] = std::minmax_element(u.begin(), u.end());
    if (*min_it == *max_it) throw std::invalid_argument("fit_weibull: constant sample");
    const double max_log = *max_it;
    for (double& v : u) v -= max_log;
    const double mean_u = mean(u);
    // No u is above 0, so neither is the weighted mean in g: the root has
    // 1/k <= -mean(u), which bounds the bracket below from the start.
    // Newton starts at the log-moment estimate, sd(ln x) = pi / (sqrt(6) k),
    // unless that lies below the bound.
    double lo = -1.0 / mean_u, hi = std::numeric_limits<double>::infinity();
    double k = std::max(lo, std::numbers::pi / (std::sqrt(6.0) * stddev(u)));
    for (int iter = 0; iter < 100; ++iter) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0;
        for (double v : u) {
            const double w = std::exp(k * v);
            s0 += w;
            s1 += w * v;
            s2 += w * v * v;
        }
        const double m1 = s1 / s0;
        const double g = m1 - 1.0 / k - mean_u;
        (g < 0.0 ? lo : hi) = k;
        const double gp = s2 / s0 - m1 * m1 + 1.0 / (k * k);
        double next = k - g / gp;
        if (!(next > lo && next <= hi)) next = std::isinf(hi) ? 2.0 * k : std::sqrt(lo * hi);
        const double step = next - k;
        k = next;
        if (std::fabs(step) < 1e-10 * std::max(1.0, k)) break;
    }
    double s0 = 0.0;
    for (double v : u) s0 += std::exp(k * v);
    const double scale = std::exp(max_log) * std::pow(s0 / double(xs.size()), 1.0 / k);
    return std::make_unique<Weibull>(k, scale);
}

std::unique_ptr<Gamma> fit_gamma(std::span<const double> xs) {
    require_nonempty(xs, "fit_gamma");
    if (!all_positive(xs)) throw std::invalid_argument("fit_gamma: data must be positive");
    const double m = mean(xs), v = variance(xs);
    if (!(v > 0.0)) throw std::invalid_argument("fit_gamma: zero variance");
    return std::make_unique<Gamma>(m * m / v, v / m);
}

std::unique_ptr<Uniform> fit_uniform(std::span<const double> xs) {
    require_nonempty(xs, "fit_uniform");
    const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
    if (*mn == *mx) throw std::invalid_argument("fit_uniform: constant sample");
    // Widen by the mean gap so the extreme order statistics are interior.
    const double margin = (*mx - *mn) / double(xs.size());
    return std::make_unique<Uniform>(*mn - margin, *mx + margin);
}

namespace {

constexpr Family kDefault[] = {Family::kExponential, Family::kNormal,
                               Family::kLogNormal,   Family::kPareto,
                               Family::kWeibull,     Family::kGamma,
                               Family::kUniform};

/// Family `f` fitted to `xs`, or null when the sample violates the
/// family's preconditions (Deterministic is only for constant data).
std::unique_ptr<Distribution> fit_family(Family f, std::span<const double> xs) {
    try {
        switch (f) {
            case Family::kDeterministic: return nullptr;
            case Family::kUniform: return fit_uniform(xs);
            case Family::kExponential: return fit_exponential(xs);
            case Family::kNormal: return fit_normal(xs);
            case Family::kLogNormal: return fit_lognormal(xs);
            case Family::kPareto: return fit_pareto(xs);
            case Family::kWeibull: return fit_weibull(xs);
            case Family::kGamma: return fit_gamma(xs);
        }
    } catch (const std::invalid_argument&) {
    }
    return nullptr;
}

/// The one sorted copy every family's KS scan reads. The estimators keep
/// reading `xs` in its original order: their sums depend on it.
std::vector<double> sorted_copy(std::span<const double> xs, const char* who) {
    require_nonempty(xs, who);
    require_finite(xs, who);
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    return s;
}

/// The fit of a constant sample (sorted.front() == sorted.back()).
Fit deterministic(std::span<const double> xs) {
    return Fit{std::make_unique<Deterministic>(xs.front()), 0.0};
}

/// The earliest default family with the least KS distance, among those
/// whose distance is below `cutoff`; an invalid Fit when there is none.
/// Each family's scan stops as soon as it cannot beat the best so far.
Fit select_best(std::span<const double> xs, const char* who, double cutoff) {
    const auto sorted = sorted_copy(xs, who);
    if (sorted.front() == sorted.back()) return deterministic(xs);
    Fit best;
    for (Family f : kDefault) {
        auto d = fit_family(f, xs);
        if (!d) continue;
        const double ks = ks_statistic_sorted(sorted, *d, cutoff);
        if (ks < cutoff) {
            best = Fit{std::move(d), ks};
            cutoff = ks;  // a tie cannot displace the earlier family
        }
    }
    return best;
}

}  // namespace

std::vector<Fit> fit_all(std::span<const double> xs, std::span<const Family> families) {
    const auto sorted = sorted_copy(xs, "fit_all");
    std::vector<Fit> fits;
    if (sorted.front() == sorted.back()) {
        fits.push_back(deterministic(xs));
        return fits;
    }
    for (Family f : families)
        if (auto d = fit_family(f, xs)) {
            const double ks = ks_statistic_sorted(sorted, *d);
            fits.push_back(Fit{std::move(d), ks});
        }
    std::stable_sort(fits.begin(), fits.end(),
                     [](const Fit& a, const Fit& b) { return a.ks < b.ks; });
    return fits;
}

Fit fit_best(std::span<const double> xs) {
    auto best = select_best(xs, "fit_best", std::numeric_limits<double>::infinity());
    if (!best.valid()) throw std::runtime_error("fit_best: no family fit the sample");
    return best;
}

std::unique_ptr<Distribution> fit_or_empirical(std::span<const double> xs,
                                               double ks_threshold) {
    // Below the next double up is at or under the threshold.
    auto best = select_best(xs, "fit_or_empirical",
                            std::nextafter(ks_threshold,
                                           std::numeric_limits<double>::infinity()));
    if (best.valid()) return std::move(best.dist);
    return std::make_unique<Empirical>(xs);
}

}  // namespace kooza::stats
