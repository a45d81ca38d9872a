// Per-request feature extraction — the rows of the paper's Table 2.
//
// For each request id, aggregate its records across the four subsystem
// streams into one feature vector: network request size, CPU utilization,
// memory size/type, storage size/type, and end-to-end latency.
#pragma once

#include <cstdint>
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
///
/// The accumulators sit in one vector in first-seen order, reached
/// through an open-addressed table from request id to index: a record
/// costs a hash and a probe, and no heap allocation once the table has
/// room. Ids are hashed, never used as offsets, so any 64-bit id costs
/// one slot.
class FeatureAccumulator {
public:
    /// Make room for `requests` distinct request ids before the table
    /// has to grow; more still fit. A hint, for callers that know the
    /// count (a TraceSet's requests, a capture header's row count).
    void reserve(std::size_t requests);

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
        std::uint64_t id = 0;
        std::uint64_t rx = 0, tx = 0;
        double cpu_busy = 0.0;
        std::uint64_t mem_read = 0, mem_write = 0;
        std::uint64_t sto_read = 0, sto_write = 0;
        double first_sto_time = -1.0;
        std::uint64_t first_lbn = 0;
        double first_mem_time = -1.0;
        std::uint32_t first_bank = 0;
    };

    /// The bucket of index_ holding `id`, or the empty one it would take.
    [[nodiscard]] std::size_t bucket(std::uint64_t id) const;
    /// The accumulator of request `id`, appended on its first record.
    PerRequest& slot(std::uint64_t id);
    /// The accumulator of request `id`, or nullptr if no record named it.
    [[nodiscard]] const PerRequest* find(std::uint64_t id) const;
    /// Rebuild index_ with `capacity` buckets (a power of two).
    void rehash(std::size_t capacity);

    std::vector<PerRequest> slots_;  ///< one per request id, first-seen order
    /// Linear-probing table over slots_: bucket = slot index + 1, 0 = empty.
    /// Its size is a power of two, kept at least twice the slot count.
    std::vector<std::uint32_t> index_;
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
