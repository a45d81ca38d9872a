#include "hw/memory.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace kooza::hw {

namespace {

struct MemoryMetrics {
    obs::Counter& accesses = obs::counter("hw.mem.accesses_total");
    obs::Counter& bytes = obs::counter("hw.mem.bytes_total", obs::Unit::kBytes);
};

MemoryMetrics& metrics() {
    static MemoryMetrics m;
    return m;
}

}  // namespace

Memory::Memory(sim::Engine& engine, MemoryParams params, trace::Sink* sink)
    : engine_(engine), params_(params), sink_(sink) {
    if (params_.banks == 0) throw std::invalid_argument("Memory: banks must be >= 1");
    if (!(params_.bank_bandwidth > 0.0))
        throw std::invalid_argument("Memory: bandwidth must be > 0");
    banks_.reserve(params_.banks);
    for (std::uint32_t b = 0; b < params_.banks; ++b)
        banks_.push_back(std::make_unique<sim::Resource>(engine_, 1));
}

std::uint32_t Memory::bank_of(std::uint64_t address) const noexcept {
    return std::uint32_t((address / 4096) % params_.banks);
}

void Memory::access(std::uint64_t request_id, std::uint32_t bank,
                    std::uint64_t size_bytes, trace::IoType type, sim::EventFn on_done) {
    if (bank >= params_.banks) throw std::invalid_argument("Memory::access: bank range");
    const double issued = engine_.now();
    // Keyed at issue, emitted at completion (see sink.hpp hold protocol).
    if (sink_ != nullptr) sink_->open_hold(trace::StreamId::kMemory, issued);
    const std::uint32_t slot = accesses_.acquire();
    accesses_[slot].rec = trace::MemoryRecord{issued, request_id, bank, size_bytes, type};
    accesses_[slot].on_done = std::move(on_done);
    banks_[bank]->acquire([this, slot] {
        const double bytes = double(accesses_[slot].rec.size_bytes);
        const double service = params_.access_latency + bytes / params_.bank_bandwidth;
        engine_.schedule_after(service, [this, slot] {
            Access& a = accesses_[slot];
            banks_[a.rec.bank]->release();
            metrics().accesses.add();
            metrics().bytes.add(a.rec.size_bytes);
            if (sink_ != nullptr) {
                sink_->append(a.rec);
                sink_->close_hold(trace::StreamId::kMemory, a.rec.time);
            }
            sim::EventFn on_done = std::move(a.on_done);
            accesses_.release(slot);
            on_done();
        });
    });
}

}  // namespace kooza::hw
