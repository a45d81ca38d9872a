// TraceSet: everything one monitored server (or cluster) emitted — the
// four per-subsystem record streams, end-to-end request records, and the
// Dapper-style span collection. This is the sole training input for every
// model in the library. The per-stream functions below iterate the stream
// table in schema.hpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/records.hpp"
#include "trace/span.hpp"

namespace kooza::trace {

struct TraceSet {
    std::vector<StorageRecord> storage;
    std::vector<CpuRecord> cpu;
    std::vector<MemoryRecord> memory;
    std::vector<NetworkRecord> network;
    std::vector<RequestRecord> requests;
    std::vector<FailureRecord> failures;  ///< crash/recover/failover/repair events
    std::vector<Span> spans;

    /// Append everything from `other` (record order is preserved per
    /// stream; callers re-sort by time if they interleave sources).
    void merge(const TraceSet& other);

    /// Total record count across all streams (spans included).
    [[nodiscard]] std::size_t total_records() const noexcept;

    [[nodiscard]] bool empty() const noexcept { return total_records() == 0; }

    void clear();

    /// Stable-sort every stream by its records' sort_key (records.hpp):
    /// time, requests by arrival, spans by start.
    void sort_by_time();

    /// One-line inventory, e.g. "storage=120 cpu=240 ... spans=60".
    [[nodiscard]] std::string summary() const;
};

}  // namespace kooza::trace
