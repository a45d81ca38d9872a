// Replayer: executes a synthetic workload against the same device models
// a real chunkserver runs on, producing traces and end-to-end latencies
// that can be compared 1:1 with the original system's — the second half
// of the paper's validation loop (Table 2's "Synthetic Workload (KOOZA)"
// rows).
//
// Two modes implement the cross-examination:
//  * kStructured  — phases run in the request's learned order (KOOZA).
//  * kIndependent — every subsystem is stressed concurrently at arrival,
//    which is all a structure-less in-breadth model can justify; latency
//    degenerates to the slowest subsystem (the paper's "invalid stressing
//    of the system").
//
// One replay is one run: an engine, one device stack per server built
// from the hardware of a gfs::GfsConfig (the cluster the traces came
// from), and one record per request that steps through its phases. The
// phase vocabulary is gfs::phase's: a request's interned PhaseOrder
// carries the gfs::Phase id of each name, the device step it drives; any
// other name counts in ReplayResult::unknown_phases and costs one
// zero-delay event. A
// request's byte and busy-time budgets are split evenly across the
// phases that spend them (a replicated write's repl.forward spends part
// of its network and storage bytes, not a second copy).
//
// Arrivals are pumped the way capture's schedule pump feeds a cluster:
// the requests are ordered once by (time, index in the workload), and
// each arrival schedules the next one before its request steps, so the
// engine holds O(in-flight) events instead of the whole workload. Tie
// rule: events at one instant dispatch in the order they were scheduled,
// so a device step that was scheduled before the previous arrival fired
// and ends at exactly a request's arrival time runs before that arrival.
// Arrival times must be finite and non-negative (std::invalid_argument).
#pragma once

#include <cstdint>
#include <vector>

#include "core/synthetic.hpp"
#include "gfs/config.hpp"
#include "trace/traceset.hpp"

namespace kooza::core {

enum class ReplayMode { kStructured, kIndependent };

struct ReplayConfig {
    /// Replay on the default cluster's hardware.
    ReplayConfig() : ReplayConfig(gfs::GfsConfig{}) {}
    /// Replay on `hw`'s device models and control-message size.
    explicit ReplayConfig(const gfs::GfsConfig& hw)
        : disk(hw.disk), cpu(hw.cpu), memory(hw.memory), net(hw.net),
          control_bytes(hw.control_bytes) {}

    hw::DiskParams disk;
    hw::CpuParams cpu;
    hw::MemoryParams memory;
    hw::SwitchParams net;
    std::uint64_t control_bytes;
    /// A request runs on server `SyntheticRequest::server % n_servers`.
    /// Only ClusterModel tags requests with per-server ids; every other
    /// generator leaves them on server 0.
    std::size_t n_servers = 1;
    /// Split of a request's CPU busy time before/after I/O (take it from
    /// ServerModel::cpu_verify_fraction for a trained model).
    double cpu_verify_fraction = 0.4;
};

struct ReplayResult {
    trace::TraceSet traces;
    std::vector<double> latencies;      ///< completion order
    std::uint64_t network_drops = 0;    ///< client-port frame drops (incast)
    std::uint64_t network_timeouts = 0;
    std::size_t unknown_phases = 0;     ///< phases the replayer didn't recognize

    /// Aggregate run statistics (for power/provisioning studies).
    double duration = 0.0;              ///< simulated seconds
    double mean_cpu_utilization = 0.0;  ///< across replay servers
    double mean_disk_utilization = 0.0;
};

class Replayer {
public:
    explicit Replayer(ReplayConfig cfg = {});

    [[nodiscard]] ReplayResult replay(const SyntheticWorkload& workload,
                                      ReplayMode mode = ReplayMode::kStructured) const;

    /// Sharded replay: requests are partitioned by their `server` tag and
    /// each server runs as an independent shard with its own sim::Engine,
    /// recording into its own group of one trace::MemoryCapture, executed
    /// across the thread pool and merged by shard index — so results are
    /// bit-identical at any thread count. Unlike
    /// replay(), shards share nothing: no client-port fan-in contention
    /// and no cross-server replica forwarding (repl.forward stays on the
    /// shard). Use replay() when those couplings are the point (incast).
    [[nodiscard]] ReplayResult replay_sharded(
        const SyntheticWorkload& workload,
        ReplayMode mode = ReplayMode::kStructured) const;

    [[nodiscard]] const ReplayConfig& config() const noexcept { return cfg_; }

private:
    ReplayConfig cfg_;
};

}  // namespace kooza::core
