#include "stats/special.hpp"

#include <cmath>
#include <stdexcept>

namespace kooza::stats {

double normal_cdf(double z) noexcept { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_quantile(double p) {
    if (!(p > 0.0 && p < 1.0))
        throw std::invalid_argument("normal_quantile: p must be in (0,1)");
    // Peter Acklam's algorithm.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};
    const double plow = 0.02425, phigh = 1.0 - plow;
    double q, r;
    if (p < plow) {
        q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p > phigh) {
        q = std::sqrt(-2.0 * std::log(1.0 - p));
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

namespace {

// std::lgamma writes the global `signgam`, a data race once fitters run
// on the thread pool; lgamma_r keeps the sign local (unused: a > 0 here).
double lgamma_local(double a) {
#if defined(__GLIBC__) || defined(__APPLE__)
    int sign = 0;
    return ::lgamma_r(a, &sign);
#else
    return std::lgamma(a);
#endif
}

// Series expansion of P(a,x), valid for x < a+1.
double gamma_p_series(double a, double x) {
    const double lg = lgamma_local(a);
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int n = 0; n < 500; ++n) {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if (std::fabs(del) < std::fabs(sum) * 1e-14) break;
    }
    return sum * std::exp(-x + a * std::log(x) - lg);
}

// Continued fraction for Q(a,x), valid for x >= a+1 (Lentz's method).
double gamma_q_cf(double a, double x) {
    const double lg = lgamma_local(a);
    const double tiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < 500; ++i) {
        const double an = -double(i) * (double(i) - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < tiny) d = tiny;
        c = b + an / c;
        if (std::fabs(c) < tiny) c = tiny;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < 1e-14) break;
    }
    return std::exp(-x + a * std::log(x) - lg) * h;
}

}  // namespace

double gamma_p(double a, double x) {
    if (!(a > 0.0)) throw std::invalid_argument("gamma_p: a must be > 0");
    if (x < 0.0) throw std::invalid_argument("gamma_p: x must be >= 0");
    if (x == 0.0) return 0.0;
    if (x < a + 1.0) return gamma_p_series(a, x);
    return 1.0 - gamma_q_cf(a, x);
}

}  // namespace kooza::stats
