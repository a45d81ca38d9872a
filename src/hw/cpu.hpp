// CPU model: a pool of cores executing bursts of work.
//
// Work is expressed in core-seconds (the GFS layer derives it from bytes
// processed). Each completed burst emits a CpuRecord whose `utilization`
// is the burst's busy share of its own wall-clock window (busy / (queue +
// busy)); per-request utilization over the full request window is
// computed downstream by trace::extract_features.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/slots.hpp"
#include "trace/records.hpp"
#include "trace/sink.hpp"

namespace kooza::hw {

struct CpuParams {
    std::uint32_t cores = 2;
    /// Core-seconds per byte touched for data-processing work
    /// (checksum/copy-bound, ~ a few GB/s per core).
    double per_byte_cost = 1.0 / 3e9;
    /// Fixed core-seconds per RPC for protocol handling.
    double per_request_overhead = 20e-6;
};

class Cpu {
public:
    Cpu(sim::Engine& engine, CpuParams params, trace::Sink* sink = nullptr);

    /// Run a burst of `busy_seconds` of single-core work for a request;
    /// `on_done` runs when it completes.
    void execute(std::uint64_t request_id, double busy_seconds, sim::EventFn on_done);

    /// Convenience: burst sized from bytes processed + per-request overhead.
    [[nodiscard]] double work_for_bytes(std::uint64_t bytes) const noexcept;

    [[nodiscard]] const CpuParams& params() const noexcept { return params_; }
    [[nodiscard]] double utilization() const noexcept { return cores_->utilization(); }

private:
    /// One burst in flight: its record, filled in as it goes, and the
    /// continuation. Its core waiter and completion event capture its slot.
    struct Burst {
        trace::CpuRecord rec;
        sim::EventFn on_done;
    };

    sim::Engine& engine_;
    CpuParams params_;
    trace::Sink* sink_;
    std::unique_ptr<sim::Resource> cores_;
    sim::Slots<Burst> bursts_;
};

}  // namespace kooza::hw
