// GFS client: splits user requests into per-chunk operations, resolves
// chunk locations at the master (with client-side caching, as GFS clients
// do), issues them to the primary chunkservers, and records the
// end-to-end RequestRecord plus the root "request" span. A request names
// its file by the master's FileId, and the location cache is one vector
// per file indexed by chunk, so no file name travels the request path.
//
// Failover policy (GFS semantics): a dead replica costs an RPC timeout
// that backs off exponentially across successive failovers of one piece
// (failover_timeout * failover_backoff^i, capped at failover_timeout_max).
// A failed primary is demoted to the back of the cached location so later
// requests do not re-pay its timeout; when every replica of a piece is
// down the client evicts the cached entry and re-asks the master — which
// may have re-replicated by then — for up to client_retry_rounds extra
// rounds before the request fails.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gfs/chunkserver.hpp"
#include "gfs/config.hpp"
#include "gfs/master.hpp"
#include "hw/cpu.hpp"
#include "hw/network.hpp"
#include "sim/engine.hpp"
#include "sim/slots.hpp"
#include "trace/sink.hpp"
#include "trace/span.hpp"

namespace kooza::gfs {

/// The master's executable half: a CPU for lookup work and an ingress
/// port. (Namespace state lives in gfs::Master.)
struct MasterNode {
    MasterNode(sim::Engine& engine, const GfsConfig& cfg);
    std::unique_ptr<hw::Cpu> cpu;
    std::unique_ptr<hw::SwitchPort> ingress;
};

class Client {
public:
    Client(std::uint32_t id, sim::Engine& engine, const GfsConfig& cfg, Master& master,
           MasterNode& master_node, std::vector<std::unique_ptr<ChunkServer>>& servers,
           trace::Sink& sink, trace::SpanTracer* tracer);

    /// Issue one user request (read or write of `size` bytes at `offset`
    /// of `file`). Multi-chunk requests fan out to all owning servers in
    /// parallel; completion (and `on_done`) fires when every piece is
    /// done. Emits the RequestRecord and closes the root span. If every
    /// replica of some piece is failed, or a server bounced a piece, the
    /// request fails: no RequestRecord, and last_latency() is negative
    /// while `on_done` runs.
    /// An unknown file id, or a range beyond the file's end, throws
    /// std::invalid_argument.
    void issue(std::uint64_t request_id, FileId file, std::uint64_t offset,
               std::uint64_t size, trace::IoType type, sim::EventFn on_done);

    /// Latency of the request whose `on_done` is running: seconds from
    /// issue to completion, or -1 when it failed.
    [[nodiscard]] double last_latency() const noexcept { return last_latency_; }

    /// Responses from chunkservers land here.
    [[nodiscard]] hw::SwitchPort& ingress() noexcept { return *ingress_; }

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

    /// Requests that exhausted every replica without an answer. Failed
    /// requests produce no RequestRecord and report a negative
    /// last_latency() to their completion.
    [[nodiscard]] std::uint64_t failed_requests() const noexcept {
        return failed_requests_;
    }

    /// Failover waits this client has paid (dead-replica RPC timeouts).
    [[nodiscard]] std::uint64_t failovers() const noexcept { return failovers_; }

    /// Request pieces bounced by chunkserver admission control. A
    /// rejected piece fails its request (rejection is the shed — the
    /// client does not retry it).
    [[nodiscard]] std::uint64_t rejections() const noexcept { return rejections_; }

private:
    /// One user request in flight.
    struct Request {
        std::uint64_t id = 0;
        FileId file = 0;
        trace::IoType type = trace::IoType::kRead;
        double arrival = 0.0;
        std::uint64_t size = 0;
        trace::SpanId root = 0;
        std::size_t outstanding = 0;  ///< pieces not yet finished
        bool failed = false;          ///< some piece failed or was bounced
        sim::EventFn on_done;
    };
    /// One per-chunk piece of a request, failing over across replicas.
    struct Piece {
        std::uint32_t request = 0;  ///< slot of the owning Request
        std::uint64_t chunk_index = 0;
        std::uint64_t offset_in_chunk = 0;
        std::uint64_t size = 0;
        ChunkLocation loc;               ///< replicas as last resolved
        std::size_t attempt = 0;         ///< index into loc.servers
        std::uint32_t round = 0;         ///< master re-asks so far
        std::uint32_t backoff_step = 0;  ///< failover waits so far
        trace::SpanId span = 0;          ///< open master.lookup or failover span
    };

    /// Resolve the piece's chunk location (cache, else a master round
    /// trip), then try_replica().
    void lookup(std::uint32_t piece);
    /// The master's answer arrived: cache it and try_replica().
    void located(std::uint32_t piece);
    void try_replica(std::uint32_t piece);
    void reject(std::uint32_t piece);
    void piece_done(std::uint32_t piece);
    void finish(std::uint32_t request);
    /// The cached location of chunk `chunk` of `file`, or nullptr when
    /// none is cached.
    [[nodiscard]] ChunkLocation* cached(FileId file, std::uint64_t chunk);
    /// Timeout of the step-th failover wait of one piece.
    [[nodiscard]] double backoff_wait(std::uint32_t step) const;
    [[nodiscard]] Request& request_of(std::uint32_t piece) {
        return requests_[pieces_[piece].request];
    }

    std::uint32_t id_;
    sim::Engine& engine_;
    const GfsConfig& cfg_;
    Master& master_;
    MasterNode& master_node_;
    std::vector<std::unique_ptr<ChunkServer>>& servers_;
    trace::Sink& sink_;
    trace::SpanTracer* tracer_;
    std::unique_ptr<hw::SwitchPort> ingress_;
    /// [file][chunk index] -> location; an empty replica list is not
    /// cached. A file's row is sized at its first miss and grows when
    /// record appends have added chunks.
    std::vector<std::vector<ChunkLocation>> location_cache_;
    sim::Slots<Request> requests_;
    sim::Slots<Piece> pieces_;
    std::vector<ChunkServer*> chain_;  ///< a write's forwarding chain, reused
    double last_latency_ = 0.0;
    std::uint64_t failed_requests_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t rejections_ = 0;
};

}  // namespace kooza::gfs
