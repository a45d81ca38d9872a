#include "hw/cpu.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace kooza::hw {

namespace {

struct CpuMetrics {
    obs::Counter& bursts = obs::counter("hw.cpu.bursts_total");
    obs::Gauge& queue_depth = obs::gauge("hw.cpu.queue_depth");
    obs::Histogram& busy_ns =
        obs::histogram("hw.cpu.busy_ns", obs::Unit::kNanoseconds);
};

CpuMetrics& metrics() {
    static CpuMetrics m;
    return m;
}

}  // namespace

Cpu::Cpu(sim::Engine& engine, CpuParams params, trace::Sink* sink)
    : engine_(engine), params_(params), sink_(sink) {
    if (params_.cores == 0) throw std::invalid_argument("Cpu: cores must be >= 1");
    if (!(params_.per_byte_cost >= 0.0))
        throw std::invalid_argument("Cpu: per_byte_cost must be >= 0");
    cores_ = std::make_unique<sim::Resource>(engine_, params_.cores);
}

double Cpu::work_for_bytes(std::uint64_t bytes) const noexcept {
    return params_.per_request_overhead + double(bytes) * params_.per_byte_cost;
}

void Cpu::execute(std::uint64_t request_id, double busy_seconds, sim::EventFn on_done) {
    if (!(busy_seconds >= 0.0)) throw std::invalid_argument("Cpu::execute: negative work");
    const double issued = engine_.now();
    // Keyed at issue, emitted at completion (see sink.hpp hold protocol).
    if (sink_ != nullptr) sink_->open_hold(trace::StreamId::kCpu, issued);
    metrics().queue_depth.set(double(cores_->queue_length()));
    const std::uint32_t slot = bursts_.acquire();
    bursts_[slot].rec = trace::CpuRecord{issued, request_id, busy_seconds, 0.0};
    bursts_[slot].on_done = std::move(on_done);
    cores_->acquire([this, slot] {
        engine_.schedule_after(bursts_[slot].rec.busy_seconds, [this, slot] {
            cores_->release();
            Burst& b = bursts_[slot];
            metrics().bursts.add();
            metrics().busy_ns.observe_seconds(b.rec.busy_seconds);
            if (sink_ != nullptr) {
                const double window = engine_.now() - b.rec.time;
                b.rec.utilization = window > 0.0 ? b.rec.busy_seconds / window : 1.0;
                sink_->append(b.rec);
                sink_->close_hold(trace::StreamId::kCpu, b.rec.time);
            }
            sim::EventFn on_done = std::move(b.on_done);
            bursts_.release(slot);
            on_done();
        });
    });
}

}  // namespace kooza::hw
