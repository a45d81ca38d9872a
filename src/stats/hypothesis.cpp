#include "stats/hypothesis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace kooza::stats {

namespace {

// A block is skipped only when its bound is this far below the running
// maximum. Some CDFs are monotone only to within rounding (gamma_p
// switches from its series to its continued fraction at x = a + 1); the
// margin keeps such a wobble from hiding the point that attains D.
constexpr double kSkipMargin = 1e-12;

/// One branch-and-bound KS scan over an ascending sample.
struct KsScan {
    std::span<const double> s;
    const Distribution& dist;
    double cutoff;
    double n = double(s.size());
    double d = 0.0;

    /// Folds point i's two ECDF gaps into d; returns F(s[i]).
    double point(std::size_t i) {
        const double f = dist.cdf(s[i]);
        d = std::max(d, std::fabs(double(i + 1) / n - f));
        d = std::max(d, std::fabs(f - double(i) / n));
        return f;
    }

    /// Scans the points strictly between lo and hi, whose CDF values are
    /// known. A NaN bound compares false, so it never skips a block.
    void between(std::size_t lo, double f_lo, std::size_t hi, double f_hi) {
        if (hi - lo < 2 || d >= cutoff) return;
        const double above = double(hi) / n - f_lo;
        const double below = f_hi - double(lo + 1) / n;
        if (above < d - kSkipMargin && below < d - kSkipMargin) return;
        const std::size_t mid = lo + (hi - lo) / 2;
        const double f_mid = point(mid);
        between(lo, f_lo, mid, f_mid);
        between(mid, f_mid, hi, f_hi);
    }
};

}  // namespace

void require_nonempty(std::span<const double> xs, const char* who) {
    if (xs.empty()) throw std::invalid_argument(std::string(who) + ": empty sample");
}

void require_finite(std::span<const double> xs, const char* who) {
    const auto it =
        std::find_if(xs.begin(), xs.end(), [](double x) { return !std::isfinite(x); });
    if (it == xs.end()) return;
    std::ostringstream os;
    os << who << ": non-finite value " << *it << " at index " << (it - xs.begin());
    throw std::invalid_argument(os.str());
}

double ks_statistic(std::span<const double> xs, const Distribution& dist) {
    require_nonempty(xs, "ks_statistic");
    require_finite(xs, "ks_statistic");
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    return ks_statistic_sorted(s, dist);
}

double ks_statistic_sorted(std::span<const double> sorted, const Distribution& dist,
                           double cutoff) {
    require_nonempty(sorted, "ks_statistic_sorted");
    KsScan scan{sorted, dist, cutoff};
    const std::size_t last = sorted.size() - 1;
    const double f_first = scan.point(0);
    if (last > 0) scan.between(0, f_first, last, scan.point(last));
    return scan.d;
}

double ks_statistic_two_sample(std::span<const double> xs, std::span<const double> ys) {
    for (auto sample : {xs, ys}) {
        require_nonempty(sample, "ks_statistic_two_sample");
        require_finite(sample, "ks_statistic_two_sample");
    }
    std::vector<double> a(xs.begin(), xs.end()), b(ys.begin(), ys.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::size_t i = 0, j = 0;
    double d = 0.0;
    while (i < a.size() && j < b.size()) {
        const double v = std::min(a[i], b[j]);
        while (i < a.size() && a[i] <= v) ++i;
        while (j < b.size() && b[j] <= v) ++j;
        d = std::max(d, std::fabs(double(i) / double(a.size()) -
                                  double(j) / double(b.size())));
    }
    return d;
}

}  // namespace kooza::stats
