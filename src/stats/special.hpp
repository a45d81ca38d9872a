// Special functions behind the distributions: the normal CDF and its
// inverse, and the regularized lower incomplete gamma (the Gamma CDF).
#pragma once

namespace kooza::stats {

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double z) noexcept;

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |error| < 1.15e-9). Throws std::invalid_argument outside (0,1).
[[nodiscard]] double normal_quantile(double p);

/// Regularized lower incomplete gamma P(a, x) = gamma(a,x) / Gamma(a).
/// Requires a > 0, x >= 0.
[[nodiscard]] double gamma_p(double a, double x);

}  // namespace kooza::stats
