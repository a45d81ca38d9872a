// Mechanical disk model.
//
// Service time = seek (distance-dependent over the LBN space) + rotational
// latency + transfer (size / rate). A Disk device wraps the model with an
// FCFS queue on the shared event engine and emits StorageRecords, so
// queueing delay under contention falls out naturally. This is the storage
// substrate under each GFS chunkserver and under the KOOZA replayer.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/slots.hpp"
#include "trace/records.hpp"
#include "trace/sink.hpp"

namespace kooza::hw {

/// Timing parameters of the disk mechanism (7200rpm-class defaults).
struct DiskParams {
    std::uint64_t lbn_count = 1u << 24;  ///< logical blocks
    std::uint32_t block_size = 512;      ///< bytes per LBN
    double min_seek = 0.0005;            ///< track-to-track, seconds
    double max_seek = 0.010;             ///< full-stroke, seconds
    double rpm = 7200.0;
    double transfer_rate = 120e6;        ///< sustained, bytes/second
    /// Seek distance (fraction of full stroke) below which a request is
    /// treated as sequential: no seek, no rotational delay.
    double sequential_threshold = 1e-6;
};

/// Pure timing function (no queueing, no engine): service time of one I/O
/// given the previous head position.
[[nodiscard]] double disk_service_time(const DiskParams& p, std::uint64_t prev_lbn,
                                       std::uint64_t lbn, std::uint64_t size_bytes);

/// Queued disk device.
class Disk {
public:
    /// @param sink optional trace sink; a StorageRecord per completed I/O
    Disk(sim::Engine& engine, DiskParams params, trace::Sink* sink = nullptr);

    /// Issue an I/O; `on_done` runs once it is queued and served.
    void io(std::uint64_t request_id, std::uint64_t lbn, std::uint64_t size_bytes,
            trace::IoType type, sim::EventFn on_done);

    [[nodiscard]] const DiskParams& params() const noexcept { return params_; }
    [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
    [[nodiscard]] double utilization() const noexcept { return queue_->utilization(); }
    [[nodiscard]] std::uint64_t head_position() const noexcept { return head_; }

private:
    /// One I/O in flight: its record, filled in as it goes, and the
    /// continuation. Its queue waiter and service event capture its slot.
    struct Op {
        trace::StorageRecord rec;
        sim::EventFn on_done;
    };

    sim::Engine& engine_;
    DiskParams params_;
    trace::Sink* sink_;
    std::unique_ptr<sim::Resource> queue_;
    sim::Slots<Op> ops_;
    std::uint64_t head_ = 0;
    std::uint64_t completed_ = 0;
};

}  // namespace kooza::hw
