#include "hw/network.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

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
                          std::function<void(double)> on_done, bool record) {
    auto cb = std::make_shared<std::function<void(double)>>(std::move(on_done));
    const double started = engine_.now();
    // Recorded transfers are keyed at `started` but emitted when the last
    // frame is delivered (or when retries are exhausted); hold the stream
    // until whichever emit site fires.
    if (record && sink_ != nullptr)
        sink_->open_hold(trace::StreamId::kNetwork, started);
    send_tail(request_id, size_bytes, started, size_bytes, 0, record,
              std::move(cb));
}

void SwitchPort::send_tail(std::uint64_t request_id, std::uint64_t remaining,
                           double started, std::uint64_t total, std::uint32_t retries,
                           bool record,
                           std::shared_ptr<std::function<void(double)>> on_done) {
    if (remaining == 0) {
        // Whole payload serialized; deliver after propagation.
        engine_.schedule_after(params_.propagation,
                               [this, request_id, started, total, record, on_done] {
            ++completed_;
            metrics().transfers.add();
            metrics().bytes.add(total);
            const double latency = engine_.now() - started;
            if (record && sink_ != nullptr) {
                trace::NetworkRecord rec;
                rec.time = started;
                rec.request_id = request_id;
                rec.size_bytes = total;
                rec.direction = direction_;
                rec.latency = latency;
                sink_->append(rec);
                sink_->close_hold(trace::StreamId::kNetwork, started);
            }
            if (*on_done) (*on_done)(latency);
        });
        return;
    }
    // Buffer check: waiting acquirers approximate buffered frames.
    if (port_->queue_length() >= params_.buffer_frames) {
        ++drops_;
        metrics().drops.add();
        if (retries >= params_.max_retries) {
            // Give up on further retries but still complete, counting the
            // stall; real TCP would reset — for workload purposes the
            // request finishes with a pathological latency either way.
            // The record still has to be emitted: the congested transfers
            // that exhaust their retries are exactly the tail the model
            // needs, and dropping them silently undercounted incast.
            ++timeouts_;
            metrics().timeouts.add();
            engine_.schedule_after(params_.retry_timeout,
                                   [this, request_id, started, total, record,
                                    on_done] {
                ++completed_;
                const double latency = engine_.now() - started;
                if (record && sink_ != nullptr) {
                    trace::NetworkRecord rec;
                    rec.time = started;
                    rec.request_id = request_id;
                    rec.size_bytes = total;
                    rec.direction = direction_;
                    rec.latency = latency;
                    sink_->append(rec);
                    sink_->close_hold(trace::StreamId::kNetwork, started);
                }
                if (*on_done) (*on_done)(latency);
            });
            return;
        }
        ++timeouts_;
        metrics().timeouts.add();
        engine_.schedule_after(params_.retry_timeout, [this, request_id, remaining,
                                                       started, total, retries, record,
                                                       on_done] {
            send_tail(request_id, remaining, started, total, retries + 1, record,
                      on_done);
        });
        return;
    }
    const std::uint64_t frame = std::min<std::uint64_t>(remaining, params_.mtu);
    port_->acquire([this, request_id, remaining, frame, started, total, retries, record,
                    on_done] {
        const double serialization = double(frame) / params_.bandwidth;
        engine_.schedule_after(serialization, [this, request_id, remaining, frame,
                                               started, total, retries, record,
                                               on_done] {
            port_->release();
            send_tail(request_id, remaining - frame, started, total, retries, record,
                      on_done);
        });
    });
}

}  // namespace kooza::hw
