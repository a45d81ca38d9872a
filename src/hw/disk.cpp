#include "hw/disk.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace kooza::hw {

namespace {

struct DiskMetrics {
    obs::Counter& ios = obs::counter("hw.disk.io_total");
    obs::Counter& bytes = obs::counter("hw.disk.bytes_total", obs::Unit::kBytes);
    obs::Gauge& queue_depth = obs::gauge("hw.disk.queue_depth");
    obs::Histogram& service_ns =
        obs::histogram("hw.disk.service_ns", obs::Unit::kNanoseconds);
    obs::Histogram& latency_ns =
        obs::histogram("hw.disk.latency_ns", obs::Unit::kNanoseconds);
};

DiskMetrics& metrics() {
    static DiskMetrics m;
    return m;
}

}  // namespace

double disk_service_time(const DiskParams& p, std::uint64_t prev_lbn, std::uint64_t lbn,
                         std::uint64_t size_bytes) {
    if (lbn >= p.lbn_count) throw std::invalid_argument("disk_service_time: lbn range");
    const double dist =
        std::fabs(double(lbn) - double(prev_lbn)) / double(p.lbn_count);
    double t = double(size_bytes) / p.transfer_rate;
    if (dist > p.sequential_threshold) {
        // Square-root seek curve between min and max seek.
        t += p.min_seek + (p.max_seek - p.min_seek) * std::sqrt(dist);
        t += 0.5 * 60.0 / p.rpm;  // average rotational latency
    }
    return t;
}

Disk::Disk(sim::Engine& engine, DiskParams params, trace::Sink* sink)
    : engine_(engine), params_(params), sink_(sink) {
    if (params_.lbn_count == 0) throw std::invalid_argument("Disk: lbn_count 0");
    if (!(params_.transfer_rate > 0.0))
        throw std::invalid_argument("Disk: transfer_rate must be > 0");
    queue_ = std::make_unique<sim::Resource>(engine_, 1);
}

void Disk::io(std::uint64_t request_id, std::uint64_t lbn, std::uint64_t size_bytes,
              trace::IoType type, sim::EventFn on_done) {
    if (lbn >= params_.lbn_count) throw std::invalid_argument("Disk::io: lbn range");
    const double issued = engine_.now();
    // The record is keyed at issue but emitted at completion: hold the
    // storage stream so a streaming sink cannot flush past `issued`.
    if (sink_ != nullptr) sink_->open_hold(trace::StreamId::kStorage, issued);
    metrics().queue_depth.set(double(queue_->queue_length()));
    const std::uint32_t slot = ops_.acquire();
    ops_[slot].rec = trace::StorageRecord{issued, request_id, lbn, size_bytes, type, 0.0};
    ops_[slot].on_done = std::move(on_done);
    queue_->acquire([this, slot] {
        const trace::StorageRecord& rec = ops_[slot].rec;
        const double service = disk_service_time(params_, head_, rec.lbn, rec.size_bytes);
        metrics().service_ns.observe_seconds(service);
        head_ = rec.lbn + rec.size_bytes / params_.block_size;
        if (head_ >= params_.lbn_count) head_ = params_.lbn_count - 1;
        engine_.schedule_after(service, [this, slot] {
            queue_->release();
            ++completed_;
            Op& op = ops_[slot];
            op.rec.latency = engine_.now() - op.rec.time;
            auto& m = metrics();
            m.ios.add();
            m.bytes.add(op.rec.size_bytes);
            m.latency_ns.observe_seconds(op.rec.latency);
            if (sink_ != nullptr) {
                sink_->append(op.rec);
                sink_->close_hold(trace::StreamId::kStorage, op.rec.time);
            }
            sim::EventFn on_done = std::move(op.on_done);
            ops_.release(slot);
            on_done();
        });
    });
}

}  // namespace kooza::hw
