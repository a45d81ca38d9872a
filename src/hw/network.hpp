// Network device: a shared-buffer switch port.
//
// A SwitchPort models the congestion point where TCP/IP incast happens:
// many senders converge on one output with a finite packet buffer;
// overflowing frames are dropped and retried after a timeout, which is
// exactly the latency collapse the paper says a multi-server KOOZA
// composition can replicate (Section 4). Completed transfers emit
// NetworkRecords at the receiver.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/slots.hpp"
#include "trace/records.hpp"
#include "trace/sink.hpp"

namespace kooza::hw {

struct SwitchParams {
    double bandwidth = 1.25e8;     ///< output port rate, bytes/second
    double propagation = 50e-6;    ///< seconds
    std::uint32_t mtu = 1500;      ///< frame payload, bytes
    std::uint32_t buffer_frames = 64;  ///< shared output buffer
    double retry_timeout = 0.2;    ///< TCP-like retransmission timeout, s
    std::uint32_t max_retries = 16;
};

/// One congested switch output port with a finite frame buffer.
/// Transfers are chopped into MTU frames; frames arriving to a full buffer
/// are dropped and the *whole remaining tail* is retried after
/// retry_timeout (a coarse model of a TCP timeout, sufficient to reproduce
/// incast goodput collapse).
class SwitchPort {
public:
    /// @param direction recorded on emitted NetworkRecords
    SwitchPort(sim::Engine& engine, SwitchParams params,
               trace::NetworkRecord::Direction direction =
                   trace::NetworkRecord::Direction::kRx,
               trace::Sink* sink = nullptr);

    /// Send `size_bytes`; `on_done` runs once the last frame is delivered
    /// or the retries ran out.
    /// @param record  false for control messages (headers, acks): they
    ///        cost time on the port but are not payload traffic
    void transfer(std::uint64_t request_id, std::uint64_t size_bytes,
                  sim::EventFn on_done, bool record = true);

    [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
    [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
    [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
    [[nodiscard]] const SwitchParams& params() const noexcept { return params_; }

private:
    /// One transfer in flight. Exactly one waiter or event at a time
    /// holds its slot.
    struct Transfer {
        std::uint64_t request_id = 0;
        std::uint64_t remaining = 0;  ///< bytes not yet serialized
        std::uint64_t total = 0;
        double started = 0.0;
        std::uint32_t retries = 0;
        bool record = false;
        sim::EventFn on_done;
    };

    void send_tail(std::uint32_t slot);
    /// Count, record and call back a finished transfer: the last frame
    /// arrived, or the retries ran out.
    void deliver(std::uint32_t slot);

    sim::Engine& engine_;
    SwitchParams params_;
    trace::NetworkRecord::Direction direction_;
    trace::Sink* sink_;
    std::unique_ptr<sim::Resource> port_;
    sim::Slots<Transfer> transfers_;
    std::uint64_t drops_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t completed_ = 0;
};

}  // namespace kooza::hw
