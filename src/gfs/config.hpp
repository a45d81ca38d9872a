// Configuration for the GFS-like cluster simulator.
//
// Defaults are tuned so that the paper's two validation requests (a 64 KB
// read and a 4 MB write, Table 2) land in the same qualitative regime the
// paper reports: millisecond-scale latencies, single-digit-percent CPU
// utilization with writes costlier than reads, and memory traffic a
// fixed fraction of the payload (16 KB for the 64 KB read, 256 KB for the
// 4 MB write).
#pragma once

#include <cstddef>
#include <cstdint>

#include "hw/cpu.hpp"
#include "hw/disk.hpp"
#include "hw/memory.hpp"
#include "hw/network.hpp"

namespace kooza::gfs {

/// Fault-injection plan parameters. When `enabled`, the cluster builds a
/// seed-deterministic per-chunkserver crash/recover schedule: up intervals
/// are Exponential(1/mtbf) and down intervals Exponential(1/mttr), drawn
/// from per-server streams keyed on (seed, server) so the plan is
/// identical at any thread count. An explicit event list can be injected
/// instead via Cluster::inject_faults.
struct FaultConfig {
    bool enabled = false;
    double mtbf = 20.0;     ///< mean up time per server, seconds
    double mttr = 5.0;      ///< mean down time per server, seconds
    /// Generate events in [0, horizon). 0 means "until the cluster
    /// drains": events are produced lazily from the same per-server
    /// streams for as long as any request is still in flight, so slow
    /// draining tails keep seeing crashes instead of an artificially
    /// quiet cluster.
    double horizon = 60.0;
    /// Delay between a crash and the master noticing (heartbeat loss) and
    /// starting re-replication of the chunks that lost a replica.
    double detection_delay = 0.1;
    std::uint64_t seed = 0;  ///< 0 = derive from GfsConfig::seed
};

/// Ticket-style admission control at the chunkserver (after MongoDB's
/// execution-control ticket pools). A server holds `tickets` concurrency
/// tickets; requests past that either wait in a bounded FIFO or are
/// rejected back to the client. When `probe_interval > 0` the controller
/// probes: every interval it measures goodput (completions/interval),
/// steps the ticket count in its current direction, and keeps the move
/// only if goodput improved beyond the `hysteresis` band — settling on
/// the smallest ticket count whose goodput is within the band of the
/// best seen. `probe_interval <= 0` pins the ticket count at
/// `initial_tickets` (used for offline-optimal sweeps).
struct AdmissionConfig {
    bool enabled = false;
    std::uint32_t initial_tickets = 4;
    std::uint32_t min_tickets = 1;
    std::uint32_t max_tickets = 128;
    double probe_interval = 0.25;  ///< seconds between probe steps; <=0 = static
    double hysteresis = 0.05;      ///< relative goodput band treated as "same"
    std::size_t queue_limit = 64;  ///< waiters held before rejecting
    bool queue = true;             ///< false = reject immediately when out of tickets
};

struct GfsConfig {
    std::size_t n_chunkservers = 1;
    std::size_t replication = 1;   ///< replicas per chunk (1 = no replication)
    std::uint64_t chunk_size = 64ull << 20;  ///< bytes per chunk (GFS: 64 MB)

    hw::DiskParams disk{};
    hw::CpuParams cpu{.cores = 2, .per_byte_cost = 1.0 / 1e9,
                      .per_request_overhead = 20e-6};
    hw::MemoryParams memory{};
    hw::SwitchParams net{};

    /// Dapper-style head sampling: record 1 of every N request traces.
    std::uint64_t span_sample_every = 1;

    /// Control-message size (request headers, write acks, master RPCs).
    /// Control transfers cost time but are not recorded as payload traffic.
    std::uint64_t control_bytes = 512;

    /// Memory traffic per request = payload >> shift (buffer headers,
    /// chunk metadata): 64 KB read -> 16 KB (shift 2), 4 MB write ->
    /// 256 KB (shift 4), matching Table 2's memory column.
    std::uint32_t mem_shift_read = 2;
    std::uint32_t mem_shift_write = 4;

    /// Split of a request's CPU work between the verify (pre-I/O) and
    /// aggregate (post-I/O) phases of Fig. 1.
    double cpu_verify_fraction = 0.4;

    /// How long a client waits on an unresponsive chunkserver before
    /// failing over to the next replica (the first-attempt RPC timeout).
    double failover_timeout = 0.5;

    /// Exponential backoff on successive failovers within one request:
    /// attempt i waits min(failover_timeout * failover_backoff^i,
    /// failover_timeout_max).
    double failover_backoff = 2.0;
    double failover_timeout_max = 4.0;

    /// After exhausting every replica of a piece, the client evicts its
    /// cached location and re-asks the master (which may have
    /// re-replicated by then) up to this many extra rounds before the
    /// request fails. Kept at 1 so a doomed request fails within a few
    /// seconds of simulated time rather than stalling the workload.
    std::uint32_t client_retry_rounds = 1;

    /// Chunkserver crash/recover schedule (disabled by default).
    FaultConfig faults{};

    /// Chunkserver admission control (disabled by default).
    AdmissionConfig admission{};

    /// Keep the per-request latency vector (Cluster::latencies()). Turn
    /// off for datacenter-scale streamed captures, where an O(requests)
    /// vector would defeat flat-memory capture.
    bool collect_latencies = true;

    std::uint64_t seed = 123;
};

/// Disk blocks one chunk spans (at least one).
[[nodiscard]] constexpr std::uint64_t blocks_per_chunk(const GfsConfig& cfg) noexcept {
    const std::uint64_t blocks = cfg.chunk_size / cfg.disk.block_size;
    return blocks == 0 ? 1 : blocks;
}

/// First disk block of chunk `handle` on every chunkserver that holds
/// it. A disk holds lbn_count / blocks_per_chunk whole chunks, and
/// handles wrap onto those aligned slots, so two chunks' block ranges
/// never partly overlap. Needs a disk that holds at least one chunk,
/// which the gfs::Cluster constructor checks.
[[nodiscard]] constexpr std::uint64_t chunk_base_lbn(const GfsConfig& cfg,
                                                     std::uint64_t handle) noexcept {
    const std::uint64_t blocks = blocks_per_chunk(cfg);
    return handle % (cfg.disk.lbn_count / blocks) * blocks;
}

}  // namespace kooza::gfs
