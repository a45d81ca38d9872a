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

void Memory::access_fn(std::uint64_t request_id, std::uint32_t bank,
                       std::uint64_t size_bytes, trace::IoType type,
                       sim::EventFn on_done) {
    if (bank >= params_.banks) throw std::invalid_argument("Memory::access: bank range");
    const double issued = engine_.now();
    // Keyed at issue, emitted at completion (see sink.hpp hold protocol).
    if (sink_ != nullptr) sink_->open_hold(trace::StreamId::kMemory, issued);
    auto& res = *banks_[bank];
    res.acquire([this, &res, request_id, bank, size_bytes, type, issued,
                 on_done = std::move(on_done)]() mutable {
        const double service =
            params_.access_latency + double(size_bytes) / params_.bank_bandwidth;
        engine_.schedule_after(service, [this, &res, request_id, bank, size_bytes, type,
                                         issued, on_done = std::move(on_done)]() mutable {
            res.release();
            metrics().accesses.add();
            metrics().bytes.add(size_bytes);
            if (sink_ != nullptr) {
                trace::MemoryRecord rec;
                rec.time = issued;
                rec.request_id = request_id;
                rec.bank = bank;
                rec.size_bytes = size_bytes;
                rec.type = type;
                sink_->append(rec);
                sink_->close_hold(trace::StreamId::kMemory, issued);
            }
            on_done();
        });
    });
}

}  // namespace kooza::hw
