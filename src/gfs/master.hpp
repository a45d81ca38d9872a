// GFS master: file namespace, chunk table, placement and repair.
//
// The master maps (file, offset) to a chunk handle and the chunk servers
// holding its replicas (Ghemawat '03). Placement is round-robin with a
// configurable replication factor. Lookup work costs a small CPU burst on
// the master, which clients avoid on repeat accesses by caching locations.
//
// A file is named once, at create_file, which returns its FileId: ids
// are dense and count up from 0 in creation order, and every later call
// names the file by id. Handles are dense too, so the file table and the
// chunk table are vectors indexed by id and by handle. The name index
// serves create_file's duplicate check, find(), and plan_repairs(),
// which walks files in name order.
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
#include <optional>
#include <string>
#include <vector>

namespace kooza::gfs {

using ChunkHandle = std::uint64_t;

/// A file, numbered by the master in creation order from 0.
using FileId = std::uint32_t;

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

    /// Create a file of `size` bytes; allocates and places its chunks and
    /// returns the file's id (the number of files created before it).
    /// Throws if the file already exists or size is 0.
    FileId create_file(const std::string& name, std::uint64_t size);

    /// The id of file `name`, or nullopt when no such file exists.
    [[nodiscard]] std::optional<FileId> find(const std::string& name) const;

    /// Every call below that takes a FileId throws std::invalid_argument
    /// for an id create_file never returned.

    /// The name `file` was created under.
    [[nodiscard]] const std::string& name(FileId file) const;
    [[nodiscard]] std::size_t file_count() const noexcept { return files_.size(); }

    /// Record-append allocation (the signature GFS mutation): reserve
    /// `size` bytes at the file's append cursor and return the offset.
    /// If the record would straddle a chunk boundary, the cursor pads to
    /// the next chunk (GFS semantics); new chunks are allocated and
    /// placed on demand. Throws if size exceeds one chunk.
    [[nodiscard]] std::uint64_t allocate_append(FileId file, std::uint64_t size);

    [[nodiscard]] std::uint64_t file_size(FileId file) const;

    /// Chunk covering byte `offset` of `file`. Throws std::out_of_range
    /// for an offset beyond the file's chunks.
    [[nodiscard]] const ChunkLocation& lookup(FileId file, std::uint64_t offset) const;

    /// Like lookup, but the returned copy lists replicas the master
    /// believes alive first (stable within each group) — what a real
    /// master answers a client RPC with once heartbeats flagged a server.
    [[nodiscard]] ChunkLocation locate(FileId file, std::uint64_t offset) const;

    /// A copy of every chunk location of `file`, in file order.
    [[nodiscard]] std::vector<ChunkLocation> chunks(FileId file) const;

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
    struct File {
        std::string name;
        std::uint64_t size = 0;
        std::vector<ChunkHandle> chunks;  ///< in file order
    };
    struct Chunk {
        ChunkLocation loc;
        bool repairing = false;  ///< a planned repair has not committed or aborted
    };

    /// The file table entry of `file`; throws naming `who` when the id is
    /// unknown.
    [[nodiscard]] const File& entry(FileId file, const char* who) const;
    /// Bytes of file payload stored in chunk `idx` of `file`.
    [[nodiscard]] std::uint64_t chunk_payload(const File& file, std::size_t idx) const;
    /// Place a new chunk and append it to `file`'s chunk list.
    void allocate_chunk(File& file);

    std::size_t n_servers_;
    std::size_t replication_;
    std::uint64_t chunk_size_;
    std::size_t next_server_ = 0;   ///< round-robin placement cursor
    std::size_t repair_cursor_ = 0; ///< separate cursor so repairs don't
                                    ///< perturb placement determinism
    std::vector<File> files_;                ///< indexed by FileId
    std::vector<Chunk> chunks_;              ///< indexed by ChunkHandle
    std::map<std::string, FileId> names_;    ///< name -> id, walked in name order
    std::vector<bool> down_;
    std::uint64_t re_replications_ = 0;
};

}  // namespace kooza::gfs
