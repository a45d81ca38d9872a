// GFS master: file namespace, chunk table, placement and repair.
//
// The master maps (file, offset) to a chunk handle and the chunk servers
// holding its replicas (Ghemawat '03). Placement is round-robin with a
// configurable replication factor. Lookup work costs a small CPU burst on
// the master, which clients avoid on repeat accesses by caching locations.
//
// Failure handling follows the GFS design: when a chunkserver's
// heartbeats stop the master marks it down, plans re-replication of every
// chunk that lost a replica (live source -> fresh live destination), and
// commits each repair once the copy lands — from then on lookups hand out
// the repaired location. Answering lookups with live replicas first is
// what lets clients that invalidated a stale cached location stop paying
// the failover timeout.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace kooza::gfs {

using ChunkHandle = std::uint64_t;

/// Where one chunk lives.
struct ChunkLocation {
    ChunkHandle handle = 0;
    std::vector<std::uint32_t> servers;  ///< replica chunkserver ids; [0] is primary
};

/// One planned re-replication: copy `bytes` of chunk `handle` from the
/// live replica `source` to the fresh server `dest`, replacing the dead
/// replica `dead` once committed.
struct RepairTask {
    ChunkHandle handle = 0;
    std::uint32_t source = 0;
    std::uint32_t dest = 0;
    std::uint32_t dead = 0;
    std::uint64_t bytes = 0;  ///< payload stored in the chunk
};

class Master {
public:
    /// @param n_servers    chunkservers available for placement
    /// @param replication  replicas per chunk (clamped to n_servers)
    /// @param chunk_size   bytes per chunk
    Master(std::size_t n_servers, std::size_t replication, std::uint64_t chunk_size);

    /// Create a file of `size` bytes; allocates and places its chunks.
    /// Throws if the file already exists or size is 0.
    void create_file(const std::string& name, std::uint64_t size);

    /// Record-append allocation (the signature GFS mutation): reserve
    /// `size` bytes at the file's append cursor and return the offset.
    /// If the record would straddle a chunk boundary, the cursor pads to
    /// the next chunk (GFS semantics); new chunks are allocated and
    /// placed on demand. Throws if size exceeds one chunk.
    [[nodiscard]] std::uint64_t allocate_append(const std::string& name,
                                                std::uint64_t size);

    [[nodiscard]] bool has_file(const std::string& name) const;
    [[nodiscard]] std::uint64_t file_size(const std::string& name) const;

    /// Chunk covering byte `offset` of `name`. Throws on unknown file or
    /// out-of-range offset.
    [[nodiscard]] const ChunkLocation& lookup(const std::string& name,
                                              std::uint64_t offset) const;

    /// Like lookup, but the returned copy lists replicas the master
    /// believes alive first (stable within each group) — what a real
    /// master answers a client RPC with once heartbeats flagged a server.
    [[nodiscard]] ChunkLocation locate(const std::string& name,
                                       std::uint64_t offset) const;

    /// All chunks of a file, in order.
    [[nodiscard]] const std::vector<ChunkLocation>& chunks(const std::string& name) const;

    // ---- Failure detection & re-replication (GFS master duties) ----

    /// Heartbeat-loss detection: mark `server` dead. Idempotent.
    void mark_server_down(std::uint32_t server);
    /// The server rejoined; its surviving replicas count again.
    void mark_server_up(std::uint32_t server);
    [[nodiscard]] bool server_down(std::uint32_t server) const;

    /// Plan re-replication of every chunk that (a) has a replica on a
    /// down server, (b) still has a live source, (c) has a live server
    /// not yet holding it, and (d) is not already being repaired. Planned
    /// chunks are held in-flight until commit_repair/abort_repair.
    [[nodiscard]] std::vector<RepairTask> plan_repairs();

    /// The copy for `handle` landed: replace replica `dead` with `dest`.
    void commit_repair(ChunkHandle handle, std::uint32_t dead, std::uint32_t dest);
    /// The copy failed (e.g. source crashed mid-repair): allow replanning.
    void abort_repair(ChunkHandle handle);

    /// Committed re-replications so far.
    [[nodiscard]] std::uint64_t re_replications() const noexcept {
        return re_replications_;
    }

    [[nodiscard]] std::uint64_t chunk_size() const noexcept { return chunk_size_; }
    [[nodiscard]] std::size_t n_servers() const noexcept { return n_servers_; }
    [[nodiscard]] std::size_t replication() const noexcept { return replication_; }

private:
    /// Bytes of file payload stored in chunk `idx` of `name`.
    [[nodiscard]] std::uint64_t chunk_payload(const std::string& name,
                                              std::size_t idx) const;
    ChunkHandle allocate_chunk(const std::string& name, std::size_t idx,
                               std::vector<ChunkLocation>& locs);

    std::size_t n_servers_;
    std::size_t replication_;
    std::uint64_t chunk_size_;
    ChunkHandle next_handle_ = 0;
    std::size_t next_server_ = 0;   ///< round-robin placement cursor
    std::size_t repair_cursor_ = 0; ///< separate cursor so repairs don't
                                    ///< perturb placement determinism
    std::map<std::string, std::uint64_t> sizes_;
    std::map<std::string, std::vector<ChunkLocation>> files_;
    std::map<ChunkHandle, std::pair<std::string, std::size_t>> chunk_of_;
    std::vector<bool> down_;
    std::set<ChunkHandle> repairing_;
    std::uint64_t re_replications_ = 0;
};

}  // namespace kooza::gfs
