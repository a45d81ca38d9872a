#include "hw/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace kooza::hw {

namespace {

struct NetMetrics {
    obs::Counter& transfers = obs::counter("hw.net.transfers_total");
    obs::Counter& bytes = obs::counter("hw.net.bytes_total", obs::Unit::kBytes);
    obs::Counter& drops = obs::counter("hw.net.drops_total");
    obs::Counter& timeouts = obs::counter("hw.net.timeouts_total");
};

NetMetrics& metrics() {
    static NetMetrics m;
    return m;
}

}  // namespace

SwitchPort::SwitchPort(sim::Engine& engine, SwitchParams params,
                       trace::NetworkRecord::Direction direction, trace::Sink* sink)
    : engine_(engine), params_(params), direction_(direction), sink_(sink) {
    if (!(params_.bandwidth > 0.0)) throw std::invalid_argument("SwitchPort: bandwidth");
    if (params_.mtu == 0) throw std::invalid_argument("SwitchPort: mtu");
    if (params_.buffer_frames == 0) throw std::invalid_argument("SwitchPort: buffer");
    port_ = std::make_unique<sim::Resource>(engine_, 1);
}

void SwitchPort::transfer(std::uint64_t request_id, std::uint64_t size_bytes,
                          sim::EventFn on_done, bool record) {
    const double started = engine_.now();
    // Recorded transfers are keyed at `started` but emitted when deliver()
    // runs; hold the stream until then.
    if (record && sink_ != nullptr) sink_->open_hold(trace::StreamId::kNetwork, started);
    const std::uint32_t slot = transfers_.acquire();
    transfers_[slot] =
        Transfer{request_id, size_bytes, size_bytes, started, 0, record, std::move(on_done)};
    send_tail(slot);
}

void SwitchPort::send_tail(std::uint32_t slot) {
    Transfer& t = transfers_[slot];
    if (t.remaining == 0) {
        // Whole payload serialized; deliver after propagation.
        engine_.schedule_after(params_.propagation, [this, slot] { deliver(slot); });
        return;
    }
    // Buffer check: waiting acquirers approximate buffered frames.
    if (port_->queue_length() >= params_.buffer_frames) {
        ++drops_;
        metrics().drops.add();
        ++timeouts_;
        metrics().timeouts.add();
        if (t.retries >= params_.max_retries) {
            // Give up on further retries but still complete, counting the
            // stall; real TCP would reset — for workload purposes the
            // request finishes with a pathological latency either way.
            // The congested transfers that exhaust their retries are
            // exactly the tail the model needs, so they are delivered,
            // counted and recorded like any other.
            engine_.schedule_after(params_.retry_timeout, [this, slot] { deliver(slot); });
            return;
        }
        ++t.retries;
        engine_.schedule_after(params_.retry_timeout, [this, slot] { send_tail(slot); });
        return;
    }
    const std::uint64_t frame = std::min<std::uint64_t>(t.remaining, params_.mtu);
    port_->acquire([this, slot, frame] {
        const double serialization = double(frame) / params_.bandwidth;
        engine_.schedule_after(serialization, [this, slot, frame] {
            port_->release();
            transfers_[slot].remaining -= frame;
            send_tail(slot);
        });
    });
}

void SwitchPort::deliver(std::uint32_t slot) {
    Transfer& t = transfers_[slot];
    ++completed_;
    metrics().transfers.add();
    metrics().bytes.add(t.total);
    if (t.record && sink_ != nullptr) {
        sink_->append(trace::NetworkRecord{t.started, t.request_id, t.total, direction_,
                                           engine_.now() - t.started});
        sink_->close_hold(trace::StreamId::kNetwork, t.started);
    }
    sim::EventFn on_done = std::move(t.on_done);
    transfers_.release(slot);
    on_done();
}

}  // namespace kooza::hw
