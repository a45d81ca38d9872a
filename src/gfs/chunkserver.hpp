// GFS chunkserver: executes read and write pieces against its local
// device models, stepping each through the read or write path of the
// paper's Figure 1 (gfs/phase.hpp). Every phase is wrapped in a
// Dapper-style span so in-depth tracing can recover the structure, and
// every device emits subsystem records so in-breadth models can be
// trained — both from the same run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gfs/config.hpp"
#include "gfs/phase.hpp"
#include "hw/cpu.hpp"
#include "hw/disk.hpp"
#include "hw/memory.hpp"
#include "hw/network.hpp"
#include "sim/engine.hpp"
#include "sim/slots.hpp"
#include "trace/sink.hpp"
#include "trace/span.hpp"

namespace kooza::gfs {

class AdmissionController;

class ChunkServer {
public:
    ChunkServer(std::uint32_t id, sim::Engine& engine, const GfsConfig& cfg,
                trace::Sink& sink, trace::SpanTracer* tracer);

    /// Serve one piece: a `type` I/O of `size` bytes at `lbn`, under the
    /// client's root span `parent`, answered on `client_port`. A write
    /// forwards to `replicas` in chain order (copied before the call
    /// returns). `on_done` runs once the response has reached the client
    /// port. With admission control attached, `on_reject` runs instead
    /// when the server bounces the piece (an empty on_reject never
    /// bounces: the piece queues past the limit instead).
    void handle(std::uint64_t request_id, trace::IoType type, std::uint64_t lbn,
                std::uint64_t size, trace::SpanId parent, hw::SwitchPort& client_port,
                std::span<ChunkServer* const> replicas, sim::EventFn on_done,
                sim::EventFn on_reject = {});

    /// Attach a ticket controller gating primary reads and writes.
    /// Replica-side writes are NOT gated: the primary's ticket covers the
    /// whole replication chain (gating forwards could deadlock the chain
    /// against itself on small ticket counts).
    void set_admission(AdmissionController* admission) noexcept {
        admission_ = admission;
    }

    /// Ingress port (client->server and server->server traffic lands here).
    [[nodiscard]] hw::SwitchPort& ingress() noexcept { return *ingress_; }

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
    [[nodiscard]] hw::Disk& disk() noexcept { return *disk_; }

    /// Failure injection: a failed server never answers; clients time out
    /// and fail over to the next replica. Recover with set_failed(false).
    void set_failed(bool failed) noexcept { failed_ = failed; }
    [[nodiscard]] bool failed() const noexcept { return failed_; }

private:
    /// One piece in flight here: a primary read or write stepping through
    /// its path, or a replica write stepping through the write path's
    /// cpu.verify, mem.buffer and disk.io under the primary's span.
    struct Piece {
        std::uint64_t request_id = 0;
        trace::IoType type = trace::IoType::kRead;
        std::uint64_t lbn = 0;
        std::uint64_t size = 0;
        trace::SpanId parent = 0;
        trace::SpanId span = 0;  ///< the running phase's span
        std::span<const Phase> path;
        std::size_t step = 0;  ///< index of the running phase in `path`
        hw::SwitchPort* client_port = nullptr;
        std::vector<ChunkServer*> replicas;  ///< forwarding chain
        std::size_t forwarded = 0;           ///< replicas written so far
        bool ticket = false;                 ///< holds an admission ticket
        sim::EventFn on_done;
    };

    std::uint32_t open(std::uint64_t request_id, trace::IoType type, std::uint64_t lbn,
                       std::uint64_t size, trace::SpanId parent,
                       std::span<const Phase> path, sim::EventFn on_done);
    /// Replica side of a forward: verify, buffer and write, no client ack.
    void replica_write(std::uint64_t request_id, std::uint64_t lbn, std::uint64_t size,
                       trace::SpanId parent, sim::EventFn on_done);
    /// A primary piece holds its ticket (if any): count it and run.
    void admitted(std::uint32_t slot);
    /// Open the span of the piece's current phase and issue its device
    /// work, or complete the piece once its path is done.
    void run_phase(std::uint32_t slot);
    /// Device completion of the current phase: close its span, step on.
    void end_phase(std::uint32_t slot);
    void complete(std::uint32_t slot);

    [[nodiscard]] std::uint64_t mem_bytes(std::uint64_t size, trace::IoType t) const;

    std::uint32_t id_;
    sim::Engine& engine_;
    const GfsConfig& cfg_;
    trace::SpanTracer* tracer_;
    std::unique_ptr<hw::Disk> disk_;
    std::unique_ptr<hw::Cpu> cpu_;
    std::unique_ptr<hw::Memory> memory_;
    std::unique_ptr<hw::SwitchPort> ingress_;
    AdmissionController* admission_ = nullptr;
    sim::Slots<Piece> pieces_;
    bool failed_ = false;
};

}  // namespace kooza::gfs
