// Per-request feature extraction — the rows of the paper's Table 2.
//
// For each request id, aggregate its records across the four subsystem
// streams into one feature vector: network request size, CPU utilization,
// memory size/type, storage size/type, and end-to-end latency.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/traceset.hpp"

namespace kooza::trace {

/// The Table 2 columns for one request.
struct RequestFeatures {
    std::uint64_t request_id = 0;
    double arrival = 0.0;
    std::uint64_t network_bytes = 0;  ///< user payload moved over the NIC
    double cpu_utilization = 0.0;     ///< CPU busy seconds / end-to-end latency
    std::uint64_t memory_bytes = 0;   ///< total memory traffic
    IoType memory_type = IoType::kRead;
    std::uint64_t storage_bytes = 0;  ///< total disk traffic
    IoType storage_type = IoType::kRead;
    double latency = 0.0;             ///< end-to-end seconds
    // Model-training extras (not Table 2 columns):
    double cpu_busy_seconds = 0.0;    ///< total CPU busy time
    std::uint64_t first_lbn = 0;      ///< LBN of the request's first disk I/O
    std::uint32_t first_bank = 0;     ///< bank of the request's first memory access

    [[nodiscard]] std::string to_string() const;
};

/// Extract features for every request in the trace set, sorted by arrival
/// time. Requests with no end-to-end record are skipped (they never
/// completed). Network bytes count the *payload-bearing* transfer: the
/// maximum of rx and tx totals, which is the response for reads and the
/// data for writes — matching the paper's "Request Size" column.
[[nodiscard]] std::vector<RequestFeatures> extract_features(const TraceSet& ts);

/// The per-request sufficient statistics behind extract_features, folded
/// one chunk at a time. Device records collapse into fixed-size
/// per-request accumulators as they arrive, so a capture read chunk by
/// chunk (trace::ChunkedReader::for_each_chunk) needs O(requests) memory
/// instead of O(records). extract_features(ts) is this fold over a single
/// chunk. Each accumulator field is written by exactly one stream, so
/// chunks of different streams may arrive in any order; within a stream
/// they must arrive in record order.
class FeatureAccumulator {
public:
    /// Every feature-bearing stream of `chunk`, in record order. Throws
    /// std::invalid_argument naming the request when a CPU record's busy
    /// time is NaN or infinite.
    void observe(const TraceSet& chunk);

    /// Completed-request rows, sorted by arrival — exactly what
    /// extract_features returns for the concatenation of everything
    /// observed. Throws std::invalid_argument naming the request when an
    /// arrival is NaN, which has no place in that order.
    [[nodiscard]] std::vector<RequestFeatures> finish() const;

private:
    void observe(const NetworkRecord& r);
    void observe(const CpuRecord& r);
    void observe(const MemoryRecord& r);
    void observe(const StorageRecord& r);

    struct PerRequest {
        std::uint64_t rx = 0, tx = 0;
        double cpu_busy = 0.0;
        std::uint64_t mem_read = 0, mem_write = 0;
        std::uint64_t sto_read = 0, sto_write = 0;
        double first_sto_time = -1.0;
        std::uint64_t first_lbn = 0;
        double first_mem_time = -1.0;
        std::uint32_t first_bank = 0;
    };

    std::map<std::uint64_t, PerRequest> acc_;
    std::vector<RequestRecord> requests_;
};

/// Column accessors for fitting/validation code.
[[nodiscard]] std::vector<double> column_network_bytes(
    const std::vector<RequestFeatures>& fs);
[[nodiscard]] std::vector<double> column_cpu_utilization(
    const std::vector<RequestFeatures>& fs);
[[nodiscard]] std::vector<double> column_memory_bytes(
    const std::vector<RequestFeatures>& fs);
[[nodiscard]] std::vector<double> column_storage_bytes(
    const std::vector<RequestFeatures>& fs);
[[nodiscard]] std::vector<double> column_latency(const std::vector<RequestFeatures>& fs);
[[nodiscard]] std::vector<double> column_arrival(const std::vector<RequestFeatures>& fs);

}  // namespace kooza::trace
