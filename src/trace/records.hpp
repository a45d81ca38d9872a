// Trace record schemas for the four subsystems the paper models (storage,
// CPU, memory, network) plus end-to-end request records. These are the
// only interface between the "real system" (the GFS simulator) and every
// model: trainers consume TraceSets, never simulator internals.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace kooza::trace {

// Every record enum runs from 0 to the value its enum_max overload
// returns: both trace readers reject anything above it, and the CSV text
// of a value is its to_string.

/// Read/write tag used by storage and memory records.
enum class IoType : std::uint8_t { kRead = 0, kWrite = 1 };

[[nodiscard]] constexpr IoType enum_max(IoType) noexcept { return IoType::kWrite; }
[[nodiscard]] constexpr const char* to_string(IoType t) noexcept {
    return t == IoType::kRead ? "read" : "write";
}

/// One disk I/O: when it was issued, where (logical block number), how
/// big, which way, and how long the device took.
struct StorageRecord {
    double time = 0.0;
    std::uint64_t request_id = 0;
    std::uint64_t lbn = 0;
    std::uint64_t size_bytes = 0;
    IoType type = IoType::kRead;
    double latency = 0.0;
};

/// One CPU burst attributed to a request. `utilization` is the fraction of
/// one core the burst represents over the request's service window — the
/// quantity the paper's CPU model states discretize ("CPU Util 1..4").
struct CpuRecord {
    double time = 0.0;
    std::uint64_t request_id = 0;
    double busy_seconds = 0.0;
    double utilization = 0.0;
};

/// One memory access burst: bank touched, bytes moved, direction.
struct MemoryRecord {
    double time = 0.0;
    std::uint64_t request_id = 0;
    std::uint32_t bank = 0;
    std::uint64_t size_bytes = 0;
    IoType type = IoType::kRead;
};

/// One network transfer at a server NIC.
struct NetworkRecord {
    enum class Direction : std::uint8_t { kRx = 0, kTx = 1 };
    double time = 0.0;
    std::uint64_t request_id = 0;
    std::uint64_t size_bytes = 0;
    Direction direction = Direction::kRx;
    double latency = 0.0;
};

[[nodiscard]] constexpr NetworkRecord::Direction enum_max(
    NetworkRecord::Direction) noexcept {
    return NetworkRecord::Direction::kTx;
}
[[nodiscard]] constexpr const char* to_string(NetworkRecord::Direction d) noexcept {
    return d == NetworkRecord::Direction::kRx ? "rx" : "tx";
}

/// One failure-path event: a chunkserver crash or recovery, a client
/// failover wait (with its backoff duration), a master-driven chunk
/// re-replication, or a request that exhausted every retry. These are the
/// records that give degraded traces their texture — GFS's "failures are
/// the norm" operating regime — and let trainers characterize workloads
/// captured while the cluster was unhealthy.
struct FailureRecord {
    enum class Kind : std::uint8_t {
        kCrash = 0,          ///< chunkserver went down (server field)
        kRecover = 1,        ///< chunkserver came back (server field)
        kFailover = 2,       ///< client waited `duration` on a dead replica
        kRepair = 3,         ///< master re-replicated a chunk onto `server`
        kRequestFailed = 4,  ///< request gave up after every retry round
        kAdmissionReject = 5,  ///< chunkserver admission control bounced it
    };
    double time = 0.0;
    std::uint64_t request_id = 0;  ///< 0 for server-lifecycle events
    std::uint32_t server = 0;
    Kind kind = Kind::kCrash;
    double duration = 0.0;  ///< backoff wait / repair latency; 0 otherwise
};

[[nodiscard]] constexpr FailureRecord::Kind enum_max(FailureRecord::Kind) noexcept {
    return FailureRecord::Kind::kAdmissionReject;
}
[[nodiscard]] constexpr const char* to_string(FailureRecord::Kind k) noexcept {
    switch (k) {
        case FailureRecord::Kind::kCrash: return "crash";
        case FailureRecord::Kind::kRecover: return "recover";
        case FailureRecord::Kind::kFailover: return "failover";
        case FailureRecord::Kind::kRepair: return "repair";
        case FailureRecord::Kind::kRequestFailed: return "request_failed";
        case FailureRecord::Kind::kAdmissionReject: return "admission_reject";
    }
    return "crash";
}

/// The record enum value whose to_string is `s`; std::invalid_argument
/// for any other text.
template <typename E>
[[nodiscard]] E enum_from_string(std::string_view s) {
    for (unsigned v = 0; v <= unsigned(enum_max(E{})); ++v)
        if (s == to_string(E(v))) return E(v);
    throw std::invalid_argument("enum_from_string: '" + std::string(s) + "'");
}

/// End-to-end view of one user request.
struct RequestRecord {
    std::uint64_t request_id = 0;
    IoType type = IoType::kRead;
    double arrival = 0.0;
    double completion = 0.0;
    std::uint64_t bytes = 0;

    [[nodiscard]] double latency() const noexcept { return completion - arrival; }
};

/// The key every capture stream is ordered by: the record's time, except
/// for requests (arrival) and spans (start, span.hpp). TraceSet::sort_by_time
/// and StreamingSink both order by it, which is what makes a streamed
/// capture byte-identical to a sorted materialized one.
[[nodiscard]] inline double sort_key(const StorageRecord& r) noexcept { return r.time; }
[[nodiscard]] inline double sort_key(const CpuRecord& r) noexcept { return r.time; }
[[nodiscard]] inline double sort_key(const MemoryRecord& r) noexcept { return r.time; }
[[nodiscard]] inline double sort_key(const NetworkRecord& r) noexcept { return r.time; }
[[nodiscard]] inline double sort_key(const FailureRecord& r) noexcept { return r.time; }
[[nodiscard]] inline double sort_key(const RequestRecord& r) noexcept { return r.arrival; }

}  // namespace kooza::trace
