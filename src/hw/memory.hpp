// Banked DRAM model.
//
// Accesses name a bank (the paper's memory-model states, Fig. 2); each
// bank is an independent FCFS queue, so bank conflicts cost time while
// accesses to different banks proceed in parallel. Latency = fixed access
// cost + bytes / per-bank bandwidth. Completed accesses emit
// MemoryRecords.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/slots.hpp"
#include "trace/records.hpp"
#include "trace/sink.hpp"

namespace kooza::hw {

struct MemoryParams {
    std::uint32_t banks = 4;
    double access_latency = 60e-9;   ///< row activation + CAS, seconds
    double bank_bandwidth = 4e9;     ///< bytes/second per bank
};

class Memory {
public:
    Memory(sim::Engine& engine, MemoryParams params, trace::Sink* sink = nullptr);

    /// Access `size_bytes` in `bank`; `on_done` runs once it is queued and
    /// served.
    void access(std::uint64_t request_id, std::uint32_t bank, std::uint64_t size_bytes,
                trace::IoType type, sim::EventFn on_done);

    /// Bank an address maps to (simple interleave on 4 KB frames).
    [[nodiscard]] std::uint32_t bank_of(std::uint64_t address) const noexcept;

    [[nodiscard]] const MemoryParams& params() const noexcept { return params_; }

private:
    /// One access in flight: its record and the continuation. Its bank
    /// waiter and completion event capture its slot.
    struct Access {
        trace::MemoryRecord rec;
        sim::EventFn on_done;
    };

    sim::Engine& engine_;
    MemoryParams params_;
    trace::Sink* sink_;
    std::vector<std::unique_ptr<sim::Resource>> banks_;
    sim::Slots<Access> accesses_;
};

}  // namespace kooza::hw
