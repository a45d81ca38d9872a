#include "gfs/chunkserver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "gfs/admission.hpp"
#include "obs/metrics.hpp"

namespace kooza::gfs {

namespace {

struct ServerMetrics {
    obs::Counter& reads = obs::counter("gfs.server.reads_total");
    obs::Counter& writes = obs::counter("gfs.server.writes_total");
    obs::Counter& replica_writes = obs::counter("gfs.server.replica_writes_total");
    obs::Counter& read_bytes =
        obs::counter("gfs.server.read_bytes_total", obs::Unit::kBytes);
    obs::Counter& write_bytes =
        obs::counter("gfs.server.write_bytes_total", obs::Unit::kBytes);
};

ServerMetrics& metrics() {
    static ServerMetrics m;
    return m;
}

/// What a replica runs of the write path: cpu.verify, mem.buffer, disk.io.
constexpr std::span<const Phase> kReplicaWrite = std::span(kWritePath).subspan(1, 3);

}  // namespace

ChunkServer::ChunkServer(std::uint32_t id, sim::Engine& engine, const GfsConfig& cfg,
                         trace::Sink& sink, trace::SpanTracer* tracer)
    : id_(id), engine_(engine), cfg_(cfg), tracer_(tracer) {
    disk_ = std::make_unique<hw::Disk>(engine_, cfg_.disk, &sink);
    cpu_ = std::make_unique<hw::Cpu>(engine_, cfg_.cpu, &sink);
    memory_ = std::make_unique<hw::Memory>(engine_, cfg_.memory, &sink);
    ingress_ = std::make_unique<hw::SwitchPort>(
        engine_, cfg_.net, trace::NetworkRecord::Direction::kRx, &sink);
}

std::uint64_t ChunkServer::mem_bytes(std::uint64_t size, trace::IoType t) const {
    const std::uint32_t shift =
        t == trace::IoType::kRead ? cfg_.mem_shift_read : cfg_.mem_shift_write;
    return std::max<std::uint64_t>(size >> shift, 512);
}

std::uint32_t ChunkServer::open(std::uint64_t request_id, trace::IoType type,
                                std::uint64_t lbn, std::uint64_t size,
                                trace::SpanId parent, std::span<const Phase> path,
                                sim::EventFn on_done) {
    const std::uint32_t slot = pieces_.acquire();
    Piece& p = pieces_[slot];
    p.request_id = request_id;
    p.type = type;
    p.lbn = lbn;
    p.size = size;
    p.parent = parent;
    p.path = path;
    p.step = 0;
    p.client_port = nullptr;
    p.replicas.clear();
    p.forwarded = 0;
    p.ticket = false;
    p.on_done = std::move(on_done);
    return slot;
}

void ChunkServer::handle(std::uint64_t request_id, trace::IoType type, std::uint64_t lbn,
                         std::uint64_t size, trace::SpanId parent,
                         hw::SwitchPort& client_port,
                         std::span<ChunkServer* const> replicas, sim::EventFn on_done,
                         sim::EventFn on_reject) {
    const std::uint32_t slot =
        open(request_id, type, lbn, size, parent, path_of(type), std::move(on_done));
    Piece& p = pieces_[slot];
    p.client_port = &client_port;
    p.replicas.assign(replicas.begin(), replicas.end());
    if (admission_ == nullptr) return admitted(slot);
    p.ticket = true;
    // A bounced piece never runs: its record is free again at once.
    if (!admission_->admit([this, slot] { admitted(slot); }, std::move(on_reject))) {
        pieces_[slot].on_done.reset();
        pieces_.release(slot);
    }
}

void ChunkServer::admitted(std::uint32_t slot) {
    const Piece& p = pieces_[slot];
    if (p.type == trace::IoType::kRead) {
        metrics().reads.add();
        metrics().read_bytes.add(p.size);
    } else {
        metrics().writes.add();
        metrics().write_bytes.add(p.size);
    }
    run_phase(slot);
}

void ChunkServer::replica_write(std::uint64_t request_id, std::uint64_t lbn,
                                std::uint64_t size, trace::SpanId parent,
                                sim::EventFn on_done) {
    metrics().replica_writes.add();
    run_phase(open(request_id, trace::IoType::kWrite, lbn, size, parent, kReplicaWrite,
                   std::move(on_done)));
}

void ChunkServer::run_phase(std::uint32_t slot) {
    Piece& p = pieces_[slot];
    if (p.step == p.path.size()) return complete(slot);
    const Phase phase = p.path[p.step];
    if (phase == Phase::kReplForward && p.forwarded == p.replicas.size()) {
        ++p.step;  // the chain is written (or empty)
        return run_phase(slot);
    }
    p.span = begin_span(tracer_, p.request_id, p.parent,
                        span_names().phases[std::size_t(phase)], engine_.now());
    const auto next = [this, slot] { end_phase(slot); };
    switch (phase) {
    case Phase::kNetRx: {
        // A read's header arrives as control; a write's payload is traffic.
        const bool payload = p.type == trace::IoType::kWrite;
        ingress_->transfer(p.request_id, payload ? p.size : cfg_.control_bytes, next,
                           payload);
        break;
    }
    case Phase::kCpuVerify:
        cpu_->execute(p.request_id,
                      cfg_.cpu_verify_fraction * cpu_->work_for_bytes(p.size), next);
        break;
    case Phase::kMemBuffer:
        memory_->access(p.request_id,
                        memory_->bank_of(p.request_id * 4096 + std::uint64_t(id_) * 64),
                        mem_bytes(p.size, p.type), p.type, next);
        break;
    case Phase::kDiskIo:
        disk_->io(p.request_id, p.lbn, p.size, p.type, next);
        break;
    case Phase::kReplForward: {
        // One hop: the payload reaches the next replica, which writes it.
        ChunkServer* rep = p.replicas[p.forwarded];
        rep->ingress().transfer(
            p.request_id, p.size,
            [this, slot, rep] {
                const Piece& p = pieces_[slot];
                rep->replica_write(p.request_id, p.lbn, p.size, p.parent,
                                   [this, slot] { end_phase(slot); });
            },
            /*record=*/true);
        break;
    }
    case Phase::kCpuAggregate:
        cpu_->execute(p.request_id,
                      (1.0 - cfg_.cpu_verify_fraction) * cpu_->work_for_bytes(p.size),
                      next);
        break;
    case Phase::kNetTx: {
        // A read's payload leaves; a write's ack is control.
        const bool payload = p.type == trace::IoType::kRead;
        p.client_port->transfer(p.request_id, payload ? p.size : cfg_.control_bytes,
                                next, payload);
        break;
    }
    case Phase::kMasterLookup:
    case Phase::kUnknown:
        throw std::logic_error("ChunkServer: phase outside the read and write paths");
    }
}

void ChunkServer::end_phase(std::uint32_t slot) {
    Piece& p = pieces_[slot];
    finish_span(tracer_, p.span, engine_.now());
    if (p.path[p.step] == Phase::kReplForward)
        ++p.forwarded;
    else
        ++p.step;
    run_phase(slot);
}

void ChunkServer::complete(std::uint32_t slot) {
    Piece& p = pieces_[slot];
    sim::EventFn on_done = std::move(p.on_done);
    const bool ticket = p.ticket;
    pieces_.release(slot);
    // The ticket goes back before the completion runs: the freed ticket
    // must be grantable to whatever that completion submits next.
    if (ticket) admission_->release();
    on_done();
}

}  // namespace kooza::gfs
