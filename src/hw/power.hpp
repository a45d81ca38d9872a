// Server power model.
//
// The paper's Applicability section: "the fact that [in-breadth modeling]
// relies on system-parameters facilitates the advance to a performance
// and power model for the DC" (Section 3.1) and "studying these
// correlations can facilitate the development of a performance and power
// model for the datacenter" (Section 5). This is the standard
// idle + utilization-proportional server power model (non-energy-
// proportional servers burn most of their power at idle), evaluated over
// aggregate utilizations from a replay.
#pragma once

#include <span>

namespace kooza::hw {

struct PowerParams {
    double idle_watts = 120.0;         ///< chassis + fans + idle silicon
    double cpu_dynamic_watts = 90.0;   ///< full-load CPU delta
    double disk_active_watts = 8.0;    ///< per-disk active delta
    double memory_active_watts = 15.0; ///< DRAM active delta
};

/// One utilization observation (fractions in [0,1]).
struct UtilizationSample {
    double time = 0.0;
    double cpu = 0.0;
    double disk = 0.0;
    double memory = 0.0;
};

class PowerModel {
public:
    explicit PowerModel(PowerParams params = {});

    /// Instantaneous power draw at the given utilizations (watts).
    [[nodiscard]] double power(double cpu_util, double disk_util,
                               double memory_util = 0.0) const;

    /// Energy over a sampled utilization series (joules): piecewise-
    /// constant integration between consecutive samples (the first sample
    /// anchors at t=0). Requires samples ordered by time.
    [[nodiscard]] double energy(std::span<const UtilizationSample> samples) const;

    /// Energy for a window of constant average utilization (joules).
    [[nodiscard]] double energy(double duration, double cpu_util, double disk_util,
                                double memory_util = 0.0) const;

    [[nodiscard]] const PowerParams& params() const noexcept { return params_; }

private:
    PowerParams params_;
};

}  // namespace kooza::hw
