#include "core/validator.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace kooza::core {

namespace {

MetricRow row(std::string subsystem, std::string metric, double original,
              double synthetic, std::string unit) {
    MetricRow r;
    r.subsystem = std::move(subsystem);
    r.metric = std::move(metric);
    r.original = original;
    r.synthetic = synthetic;
    const auto v = stats::variation(synthetic, original);
    r.variation_pct = v.value;
    r.absolute = v.absolute;
    r.unit = std::move(unit);
    return r;
}

/// Quantile that tolerates the degenerate sides admission control can
/// produce (a rejected-out phase has no completed requests): empty input
/// reports 0 so the row falls back to the zero-baseline absolute-
/// deviation convention instead of throwing mid-table.
double quantile_or_zero(const std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    return stats::quantile(v, q);
}

/// Goodput in completed requests/second over the feature set's span
/// (first arrival to last completion); 0 for empty or instantaneous sets.
double goodput_of(const std::vector<trace::RequestFeatures>& fs) {
    if (fs.empty()) return 0.0;
    double lo = fs.front().arrival, hi = fs.front().arrival + fs.front().latency;
    for (const auto& f : fs) {
        lo = std::min(lo, f.arrival);
        hi = std::max(hi, f.arrival + f.latency);
    }
    return hi > lo ? double(fs.size()) / (hi - lo) : 0.0;
}

std::string fmt_value(double v, const std::string& unit) {
    std::ostringstream os;
    if (unit == "bytes") {
        if (v >= double(1ull << 20))
            os << std::fixed << std::setprecision(2) << v / double(1ull << 20) << " MB";
        else if (v >= 1024.0)
            os << std::fixed << std::setprecision(1) << v / 1024.0 << " KB";
        else
            os << std::fixed << std::setprecision(0) << v << " B";
    } else if (unit == "%") {
        os << std::fixed << std::setprecision(2) << v * 100.0 << " %";
    } else if (unit == "ms") {
        os << std::fixed << std::setprecision(2) << v * 1e3 << " ms";
    } else {
        os << std::setprecision(4) << v;
    }
    return os.str();
}

}  // namespace

std::string MetricRow::to_string() const {
    std::ostringstream os;
    os << std::left << std::setw(12) << subsystem << std::setw(16) << metric
       << std::right << std::setw(12) << fmt_value(original, unit) << std::setw(12)
       << fmt_value(synthetic, unit);
    if (absolute) {
        // Zero baseline: no percentage exists, show the deviation in the
        // row's own unit (e.g. "+16.0 KB" rather than "1638400.00%").
        os << std::setw(10) << ("+" + fmt_value(variation_pct, unit));
    } else {
        os << std::setw(9) << std::fixed << std::setprecision(2) << variation_pct
           << "%";
    }
    return os.str();
}

double ValidationReport::max_feature_variation() const {
    double v = 0.0;
    for (const auto& r : rows)
        if (r.subsystem != "Performance" && !r.absolute)
            v = std::max(v, r.variation_pct);
    return v;
}

double ValidationReport::latency_variation() const {
    for (const auto& r : rows)
        if (r.subsystem == "Performance") return r.variation_pct;
    return 0.0;
}

std::string ValidationReport::to_table() const {
    std::ostringstream os;
    os << "== " << model_name << " ==\n";
    os << std::left << std::setw(12) << "Subsystem" << std::setw(16) << "Metric"
       << std::right << std::setw(12) << "Original" << std::setw(12) << "Synthetic"
       << std::setw(10) << "Variation" << "\n";
    os << std::string(62, '-') << "\n";
    for (const auto& r : rows) os << r.to_string() << "\n";
    if (unknown_phases > 0)
        os << "WARNING: replay skipped " << unknown_phases
           << " unknown phase(s); synthetic columns understate request cost "
              "(core.replayer.unknown_phases_total)\n";
    return os.str();
}

ValidationReport compare_features(const std::vector<trace::RequestFeatures>& original,
                                  const std::vector<trace::RequestFeatures>& synthetic,
                                  std::string model_name) {
    // Empty sides are legal (admission control can reject an entire
    // phase): every row degrades to the zero-baseline stats::variation{}
    // convention (0-vs-0 -> 0%, else absolute deviation) instead of
    // throwing while the table is being rendered.
    ValidationReport rep;
    rep.model_name = std::move(model_name);
    auto mean_of = [](std::vector<double> v) { return stats::mean(v); };
    rep.rows.push_back(row("Network", "Request Size",
                           mean_of(trace::column_network_bytes(original)),
                           mean_of(trace::column_network_bytes(synthetic)), "bytes"));
    rep.rows.push_back(row("Processor", "CPU Utilization",
                           mean_of(trace::column_cpu_utilization(original)),
                           mean_of(trace::column_cpu_utilization(synthetic)), "%"));
    rep.rows.push_back(row("Memory", "Size",
                           mean_of(trace::column_memory_bytes(original)),
                           mean_of(trace::column_memory_bytes(synthetic)), "bytes"));
    rep.rows.push_back(row("Storage", "Size",
                           mean_of(trace::column_storage_bytes(original)),
                           mean_of(trace::column_storage_bytes(synthetic)), "bytes"));
    // The mean-latency row stays first among Performance rows:
    // latency_variation() reports it, and the quantile rows below make
    // tail behaviour first-class without disturbing that contract (or
    // max_feature_variation(), which skips Performance entirely).
    rep.rows.push_back(row("Performance", "Latency",
                           mean_of(trace::column_latency(original)),
                           mean_of(trace::column_latency(synthetic)), "ms"));
    const auto lat_orig = trace::column_latency(original);
    const auto lat_syn = trace::column_latency(synthetic);
    rep.rows.push_back(row("Performance", "Latency p50",
                           quantile_or_zero(lat_orig, 0.50),
                           quantile_or_zero(lat_syn, 0.50), "ms"));
    rep.rows.push_back(row("Performance", "Latency p95",
                           quantile_or_zero(lat_orig, 0.95),
                           quantile_or_zero(lat_syn, 0.95), "ms"));
    rep.rows.push_back(row("Performance", "Latency p99",
                           quantile_or_zero(lat_orig, 0.99),
                           quantile_or_zero(lat_syn, 0.99), "ms"));
    rep.rows.push_back(row("Performance", "Goodput", goodput_of(original),
                           goodput_of(synthetic), "req/s"));
    return rep;
}

ValidationReport compare_single(const trace::RequestFeatures& original,
                                const trace::RequestFeatures& synthetic,
                                std::string label) {
    ValidationReport rep;
    rep.model_name = std::move(label);
    rep.rows.push_back(row("Network", "Request Size", double(original.network_bytes),
                           double(synthetic.network_bytes), "bytes"));
    rep.rows.push_back(row("Processor", "CPU Utilization", original.cpu_utilization,
                           synthetic.cpu_utilization, "%"));
    rep.rows.push_back(row("Memory", "Size", double(original.memory_bytes),
                           double(synthetic.memory_bytes), "bytes"));
    rep.rows.push_back(row("Memory", "Type",
                           original.memory_type == trace::IoType::kWrite ? 1.0 : 0.0,
                           synthetic.memory_type == trace::IoType::kWrite ? 1.0 : 0.0,
                           "flag"));
    rep.rows.push_back(row("Storage", "Size", double(original.storage_bytes),
                           double(synthetic.storage_bytes), "bytes"));
    rep.rows.push_back(row("Storage", "Type",
                           original.storage_type == trace::IoType::kWrite ? 1.0 : 0.0,
                           synthetic.storage_type == trace::IoType::kWrite ? 1.0 : 0.0,
                           "flag"));
    rep.rows.push_back(
        row("Performance", "Latency", original.latency, synthetic.latency, "ms"));
    return rep;
}

}  // namespace kooza::core
