// StreamingSink — the datacenter-scale capture path: records flush to
// per-stream kooza.trace/1 files *while the simulation runs*, so peak
// memory is bounded by in-flight work plus one chunk buffer per stream
// instead of the whole capture.
//
// Byte-identity contract: the files StreamingSink produces are identical
// to write_binary(sorted TraceSet) of the same capture. The canonical
// record order is (sort_key, server group, per-group emission sequence),
// with sort_key the one overload set in records.hpp/span.hpp that
// TraceSet::sort_by_time's stable per-stream sort also uses — so that
// sort over the group-concatenated collectors yields exactly this order.
// StreamingSink emits records in that order online:
//   - every record enters a per-stream min-heap keyed (sort_key, group, seq);
//   - emitters open a *hold* at issue time for records that are keyed in
//     the past but not yet appended (sink.hpp's hold protocol);
//   - a record leaves the heap only once its key is strictly below the
//     stream's watermark = min(earliest open hold, simulation now) — at
//     that point no earlier-keyed record can still arrive.
// Each drained record is appended straight into the BinaryWriter, a
// batch of one through the encoder every kooza.trace/1 file is written
// with; every `chunk_records` records of a stream the writer spills its
// full column buffers to temp files, so it is flat too.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "trace/binary.hpp"
#include "trace/sink.hpp"

namespace kooza::trace {

class StreamingSink final : public SinkProvider {
public:
    struct Options {
        std::filesystem::path dir;            ///< output trace directory
        /// Records of one stream between the writer's spill checks
        /// (each check counts in trace.stream.chunks_flushed_total).
        std::size_t chunk_records = 1 << 16;
        /// Per-column writer buffer before spilling to a temp file
        /// (BinaryWriter's spill_buffer_bytes).
        std::size_t spill_buffer_bytes = 1 << 20;
    };

    /// `n_groups` sinks: group 0 for cluster-level emitters, 1..n-1 for
    /// per-server device stacks (gfs::Cluster uses 1 + n_chunkservers).
    StreamingSink(Options opts, std::size_t n_groups);

    Sink& group(std::size_t g) override;
    [[nodiscard]] std::size_t group_count() const override { return shards_.size(); }

    /// Wire the simulation clock; the watermark uses it to release
    /// records on streams with no open holds. gfs::Cluster sets this to
    /// its engine's now().
    void set_clock(std::function<double()> now) { clock_ = std::move(now); }

    /// Drain every heap and finalize the seven .bin files. Throws
    /// std::logic_error if any hold is still open (an emitter leak) and
    /// std::runtime_error on I/O failure. Idempotent. A sink destroyed
    /// unfinished (its capture threw) writes no .bin file at all.
    void finish();

    /// Records accepted so far (all streams).
    [[nodiscard]] std::uint64_t records_seen() const noexcept { return seen_; }

private:
    friend class StreamingShard;

    struct Pending {
        double key = 0.0;
        std::uint32_t group = 0;
        std::uint64_t seq = 0;
        AnyRecord rec;
    };
    struct Later {  // min-heap on (key, group, seq)
        bool operator()(const Pending& a, const Pending& b) const noexcept {
            if (a.key != b.key) return a.key > b.key;
            if (a.group != b.group) return a.group > b.group;
            return a.seq > b.seq;
        }
    };
    struct StreamState {
        std::priority_queue<Pending, std::vector<Pending>, Later> heap;
        std::multiset<double> holds;
        std::size_t chunk_count = 0;  ///< released since the last spill check
    };

    /// Queue `rec` on its stream (the AnyRecord index).
    void push(std::uint32_t group, std::uint64_t seq, double key, AnyRecord rec);
    void open(StreamId stream, double key);
    void close(StreamId stream, double key);
    /// Pop every record below the stream's watermark into the writer,
    /// asking it to spill every chunk_records records. `drain_all`
    /// ignores the watermark (finish()).
    void release(StreamState& st, bool drain_all);

    Options opts_;
    BinaryWriter writer_;
    std::function<double()> clock_;
    std::array<StreamState, kStreamCount> streams_;
    std::vector<std::unique_ptr<Sink>> shards_;
    std::uint64_t seen_ = 0;
    std::uint64_t pending_ = 0;  ///< records currently heap-buffered
    bool finished_ = false;
};

}  // namespace kooza::trace
