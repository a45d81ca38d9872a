// Kolmogorov-Smirnov distances, one- and two-sample. KS is the selection
// criterion the paper's survey (Feitelson '02) prescribes for identifying
// the arrival-distribution family.
//
// The one-sample statistic is computed over one sorted copy of the sample
// by branch and bound (ks_statistic_sorted): only the points that can
// still attain the maximum get a CDF evaluation, and the result is the
// same double the full scan gives. The model fitters sort each sample
// once and run that kernel per candidate family.
#pragma once

#include <limits>
#include <span>

#include "stats/distributions.hpp"

namespace kooza::stats {

/// Throws std::invalid_argument naming `who` when `xs` is empty.
void require_nonempty(std::span<const double> xs, const char* who);

/// Throws std::invalid_argument naming `who`, the value and its index when
/// `xs` holds a NaN or an infinity: sorting needs a total order, and no
/// fit or KS distance is defined over such a value.
void require_finite(std::span<const double> xs, const char* who);

/// One-sample KS statistic D = sup |F_n(x) - F(x)|: sorts one copy of
/// the sample and runs ks_statistic_sorted over it. Throws
/// std::invalid_argument on an empty sample or a non-finite value.
[[nodiscard]] double ks_statistic(std::span<const double> xs, const Distribution& dist);

/// KS statistic of an ascending, finite, nonempty sample, by branch and
/// bound. Both end points are evaluated, then the sample is bisected. A
/// block [lo, hi] whose end CDF values are known holds no point beyond
/// max(hi/n - F(lo), F(hi) - (lo+1)/n), since F is monotone; the block is
/// skipped when that bound is below the running maximum by a fixed
/// margin (1e-12), which absorbs CDFs that are monotone only to within
/// rounding. Every point that can attain the maximum is evaluated with
/// the full scan's expressions, so the result equals the full scan's D
/// exactly when D < `cutoff`. Once the running maximum reaches `cutoff`
/// the scan stops and returns that value (some value >= cutoff): a
/// caller that only needs to know whether D < cutoff pays no more.
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double ks_statistic_sorted(
    std::span<const double> sorted, const Distribution& dist,
    double cutoff = std::numeric_limits<double>::infinity());

/// Two-sample KS statistic D = sup |F_n(x) - G_m(x)|. Throws
/// std::invalid_argument on an empty sample or a non-finite value.
[[nodiscard]] double ks_statistic_two_sample(std::span<const double> xs,
                                             std::span<const double> ys);

}  // namespace kooza::stats
