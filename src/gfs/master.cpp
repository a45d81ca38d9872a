#include "gfs/master.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace kooza::gfs {

namespace {

struct MasterMetrics {
    obs::Counter& lookups = obs::counter("gfs.master.lookups_total");
    obs::Counter& chunks = obs::counter("gfs.master.chunks_allocated_total");
    obs::Counter& re_replications = obs::counter("gfs.master.re_replications_total");
    obs::Gauge& servers_down = obs::gauge("gfs.master.servers_down");
};

MasterMetrics& metrics() {
    static MasterMetrics m;
    return m;
}

}  // namespace

Master::Master(std::size_t n_servers, std::size_t replication, std::uint64_t chunk_size)
    : n_servers_(n_servers),
      replication_(std::min(replication, n_servers)),
      chunk_size_(chunk_size),
      down_(n_servers, false) {
    if (n_servers == 0) throw std::invalid_argument("Master: need >= 1 chunkserver");
    if (replication == 0) throw std::invalid_argument("Master: replication must be >= 1");
    if (chunk_size == 0) throw std::invalid_argument("Master: chunk_size must be > 0");
}

const Master::File& Master::entry(FileId file, const char* who) const {
    if (file >= files_.size())
        throw std::invalid_argument(std::string(who) + ": unknown file id " +
                                    std::to_string(file));
    return files_[file];
}

void Master::allocate_chunk(File& file) {
    metrics().chunks.add();
    Chunk chunk;
    chunk.loc.handle = chunks_.size();
    for (std::size_t r = 0; r < replication_; ++r)
        chunk.loc.servers.push_back(std::uint32_t((next_server_ + r) % n_servers_));
    next_server_ = (next_server_ + 1) % n_servers_;
    file.chunks.push_back(chunk.loc.handle);
    chunks_.push_back(std::move(chunk));
}

FileId Master::create_file(const std::string& name, std::uint64_t size) {
    if (size == 0) throw std::invalid_argument("Master::create_file: empty file");
    const auto [it, created] = names_.try_emplace(name, FileId(files_.size()));
    if (!created)
        throw std::invalid_argument("Master::create_file: file exists: " + name);
    File& file = files_.emplace_back();
    file.name = name;
    file.size = size;
    const std::uint64_t n_chunks = (size + chunk_size_ - 1) / chunk_size_;
    file.chunks.reserve(n_chunks);
    for (std::uint64_t c = 0; c < n_chunks; ++c) allocate_chunk(file);
    return it->second;
}

std::optional<FileId> Master::find(const std::string& name) const {
    const auto it = names_.find(name);
    if (it == names_.end()) return std::nullopt;
    return it->second;
}

const std::string& Master::name(FileId file) const {
    return entry(file, "Master::name").name;
}

std::uint64_t Master::allocate_append(FileId file, std::uint64_t size) {
    if (size == 0) throw std::invalid_argument("Master::allocate_append: size 0");
    if (size > chunk_size_)
        throw std::invalid_argument(
            "Master::allocate_append: record larger than a chunk");
    (void)entry(file, "Master::allocate_append");
    File& f = files_[file];
    std::uint64_t offset = f.size;
    // Pad to the next chunk if the record would straddle a boundary.
    const std::uint64_t in_chunk = offset % chunk_size_;
    if (in_chunk + size > chunk_size_) offset += chunk_size_ - in_chunk;
    // Allocate chunks to cover [offset, offset + size).
    const std::uint64_t last_chunk = (offset + size - 1) / chunk_size_;
    while (f.chunks.size() <= last_chunk) allocate_chunk(f);
    f.size = offset + size;
    return offset;
}

std::uint64_t Master::file_size(FileId file) const {
    return entry(file, "Master::file_size").size;
}

const ChunkLocation& Master::lookup(FileId file, std::uint64_t offset) const {
    const File& f = entry(file, "Master::lookup");
    const std::uint64_t idx = offset / chunk_size_;
    if (idx >= f.chunks.size())
        throw std::out_of_range("Master::lookup: offset beyond file: " + name(file));
    return chunks_[f.chunks[idx]].loc;
}

ChunkLocation Master::locate(FileId file, std::uint64_t offset) const {
    metrics().lookups.add();
    ChunkLocation loc = lookup(file, offset);
    std::stable_partition(loc.servers.begin(), loc.servers.end(),
                          [this](std::uint32_t s) { return !down_[s]; });
    return loc;
}

std::vector<ChunkLocation> Master::chunks(FileId file) const {
    std::vector<ChunkLocation> out;
    for (const ChunkHandle h : entry(file, "Master::chunks").chunks)
        out.push_back(chunks_[h].loc);
    return out;
}

void Master::mark_server_down(std::uint32_t server) {
    if (server >= n_servers_)
        throw std::invalid_argument("Master::mark_server_down: unknown server");
    down_[server] = true;
    metrics().servers_down.set(
        double(std::count(down_.begin(), down_.end(), true)));
}

void Master::mark_server_up(std::uint32_t server) {
    if (server >= n_servers_)
        throw std::invalid_argument("Master::mark_server_up: unknown server");
    down_[server] = false;
    metrics().servers_down.set(
        double(std::count(down_.begin(), down_.end(), true)));
}

bool Master::server_down(std::uint32_t server) const {
    return server < n_servers_ && down_[server];
}

std::uint64_t Master::chunk_payload(const File& file, std::size_t idx) const {
    const std::uint64_t start = std::uint64_t(idx) * chunk_size_;
    if (start >= file.size) return 0;
    return std::min(chunk_size_, file.size - start);
}

std::vector<RepairTask> Master::plan_repairs() {
    std::vector<RepairTask> tasks;
    // Name order, not creation order: the repair cursor below advances
    // with every planned task, so the walk order decides destinations.
    for (const auto& [name, id] : names_) {
        const File& file = files_[id];
        for (std::size_t idx = 0; idx < file.chunks.size(); ++idx) {
            Chunk& chunk = chunks_[file.chunks[idx]];
            if (chunk.repairing) continue;
            const auto& loc = chunk.loc;
            // One dead replica per pass: losing several replicas of the
            // same chunk at once is repaired over successive passes.
            const auto dead_it =
                std::find_if(loc.servers.begin(), loc.servers.end(),
                             [this](std::uint32_t s) { return down_[s]; });
            if (dead_it == loc.servers.end()) continue;
            const auto src_it =
                std::find_if(loc.servers.begin(), loc.servers.end(),
                             [this](std::uint32_t s) { return !down_[s]; });
            if (src_it == loc.servers.end()) continue;  // nothing to copy from
            // Fresh destination: live and not already a replica, scanned
            // round-robin from the repair cursor.
            std::uint32_t dest = 0;
            bool found = false;
            for (std::size_t probe = 0; probe < n_servers_; ++probe) {
                const auto cand =
                    std::uint32_t((repair_cursor_ + probe) % n_servers_);
                if (down_[cand]) continue;
                if (std::find(loc.servers.begin(), loc.servers.end(), cand) !=
                    loc.servers.end())
                    continue;
                dest = cand;
                repair_cursor_ = (std::size_t(cand) + 1) % n_servers_;
                found = true;
                break;
            }
            if (!found) continue;  // cluster too degraded to re-replicate
            const std::uint64_t bytes = chunk_payload(file, idx);
            if (bytes == 0) continue;
            chunk.repairing = true;
            tasks.push_back(RepairTask{loc.handle, *src_it, dest, *dead_it, bytes});
        }
    }
    return tasks;
}

void Master::commit_repair(ChunkHandle handle, std::uint32_t dead, std::uint32_t dest) {
    if (handle >= chunks_.size())
        throw std::invalid_argument("Master::commit_repair: unknown chunk");
    Chunk& chunk = chunks_[handle];
    chunk.repairing = false;
    auto& servers = chunk.loc.servers;
    const auto dit = std::find(servers.begin(), servers.end(), dead);
    if (dit == servers.end())
        throw std::logic_error("Master::commit_repair: dead replica not listed");
    *dit = dest;
    ++re_replications_;
    metrics().re_replications.add();
}

void Master::abort_repair(ChunkHandle handle) {
    if (handle < chunks_.size()) chunks_[handle].repairing = false;
}

}  // namespace kooza::gfs
