// Validator: compares original and synthetic workloads on the paper's
// axes — per-subsystem request features and end-to-end performance — and
// renders Table 2-style rows ("Variation" = relative deviation in %).
#pragma once

#include <string>
#include <vector>

#include "trace/features.hpp"

namespace kooza::core {

struct MetricRow {
    std::string subsystem;  ///< Network / Processor / Memory / Storage / Performance
    std::string metric;     ///< e.g. "Request Size"
    double original = 0.0;
    double synthetic = 0.0;
    /// Percent deviation when !absolute; deviation in `unit` when absolute.
    double variation_pct = 0.0;
    /// True when `original` is zero: a relative deviation is meaningless,
    /// so `variation_pct` holds the absolute difference instead.
    bool absolute = false;
    std::string unit;

    [[nodiscard]] std::string to_string() const;
};

struct ValidationReport {
    std::string model_name;
    std::vector<MetricRow> rows;
    /// Phases the replayer did not recognize while producing the
    /// synthetic side (core::ReplayResult::unknown_phases). Nonzero means
    /// part of each request's learned structure was silently skipped, so
    /// the synthetic columns understate the real cost: to_table() prints
    /// a warning row, and the replayer exports the same count as the
    /// core.replayer.unknown_phases_total metric.
    std::uint64_t unknown_phases = 0;

    /// Largest relative variation among feature rows. Excludes Performance
    /// rows and absolute-deviation rows (zero baselines have no percentage
    /// — mixing byte deviations into a percent max would be meaningless).
    [[nodiscard]] double max_feature_variation() const;
    /// Variation of the first Performance row — the mean-latency row,
    /// which compare_features/compare_single emit ahead of the quantile
    /// and goodput rows (0 if absent).
    [[nodiscard]] double latency_variation() const;

    /// Fixed-width text table (the Table 2 reproduction format).
    [[nodiscard]] std::string to_table() const;
};

/// Aggregate comparison: means of each feature column, mean latency plus
/// p50/p95/p99 latency-quantile rows, and goodput (completed requests per
/// second over the set's span). Empty sides are legal — rows degrade to
/// the zero-baseline stats::variation{} convention (admission control can
/// reject an entire phase) instead of throwing.
[[nodiscard]] ValidationReport compare_features(
    const std::vector<trace::RequestFeatures>& original,
    const std::vector<trace::RequestFeatures>& synthetic, std::string model_name);

/// Single-request comparison — one Table 2 block (one "User Request").
[[nodiscard]] ValidationReport compare_single(const trace::RequestFeatures& original,
                                              const trace::RequestFeatures& synthetic,
                                              std::string label);

}  // namespace kooza::core
