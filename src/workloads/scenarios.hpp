// Scenario library: named, ready-to-run workload configurations for the
// cross-examination harness and `kooza_capture --scenario`.
//
// A scenario is a recipe composing the generator building blocks
// (generator.hpp) with the queueing layer's time-varying rate envelopes:
//
//   diurnal     day/night load curve over a mixed read/write file set
//   flashcrowd  flash-crowd spikes against Zipf-hot read objects
//   tiered      read-tier + log-append write-tier, time-merged
//   checkpoint  Daly-style HPC checkpoint/restart traffic
//
// Each scenario is deterministic in (params, seed): the same config opens
// the same op sequence, so streamed and materialized captures agree
// byte-for-byte at any thread count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/closedloop.hpp"
#include "workloads/generator.hpp"

namespace kooza::workloads {

/// Knobs every scenario accepts; each maps them onto its own recipe.
struct ScenarioParams {
    std::size_t count = 500;   ///< total requests to emit
    double rate = 40.0;        ///< base arrival rate (requests/second)
    std::uint64_t seed = 1234;
    std::uint64_t read_size = 64ull << 10;
    std::uint64_t write_size = 1ull << 20;
    double period = 60.0;      ///< envelope period (diurnal cycle / spike spacing)
};

/// Names accepted by make_scenario, in presentation order.
[[nodiscard]] const std::vector<std::string>& scenario_names();

/// One-line human description of a scenario ("" for unknown names).
[[nodiscard]] std::string describe_scenario(const std::string& name);

/// Open a scenario's request stream, or nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<ScheduleStream> make_scenario(const std::string& name,
                                                            const ScenarioParams& p);

/// Closed-loop scenarios are feedback recipes (client pools driven by
/// completion callbacks), not ScheduleStreams, so they live in their own
/// table: make_scenario() cannot build them and they are absent from
/// scenario_names(). run_capture routes them to the closed-loop driver.
[[nodiscard]] const std::vector<std::string>& closed_loop_scenario_names();
[[nodiscard]] bool is_closed_loop_scenario(const std::string& name);
[[nodiscard]] std::string describe_closed_loop_scenario(const std::string& name);

/// Map the common scenario knobs onto a closed-loop recipe. Throws
/// std::invalid_argument for a name not in closed_loop_scenario_names().
[[nodiscard]] ClosedLoopParams make_closed_loop_scenario(const std::string& name,
                                                         const ScenarioParams& p);

}  // namespace kooza::workloads
