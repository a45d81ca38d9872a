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
//   - every record enters its stream's typed min-heap keyed
//     (sort_key, group, seq), one heap per stream of schema.hpp's table;
//   - emitters open a *hold* at issue time for records that are keyed in
//     the past but not yet appended (sink.hpp's hold protocol); a
//     stream's open holds are (key, count) runs in ascending key order;
//   - a record leaves the heap only once its key is strictly below the
//     stream's watermark = min(earliest open hold, simulation now) — at
//     that point no earlier-keyed record can still arrive.
// Released records collect in a typed batch per stream, which goes to
// the BinaryWriter in one append (the encoder every kooza.trace/1 file
// is written with) when it holds kBatchRecords records, before every
// spill check and at finish(). Every `chunk_records` records of a stream
// the writer spills its full column buffers to temp files, so it is flat
// too. The sink's tallies are published once, at finish().
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
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

    /// Drain every heap, finalize the seven .bin files and publish the
    /// sink's tallies (trace.stream.records_total,
    /// trace.stream.chunks_flushed_total and the
    /// trace.stream.pending_records high-water mark). Throws
    /// std::logic_error if any hold is still open (an emitter leak) and
    /// std::runtime_error on I/O failure. Idempotent. A sink destroyed
    /// unfinished (its capture threw) writes no .bin file and publishes
    /// nothing.
    void finish();

    /// Records accepted so far (all streams).
    [[nodiscard]] std::uint64_t records_seen() const noexcept { return seen_; }

private:
    friend class StreamingShard;

    /// Released records a stream batches before one writer append (about
    /// 48 KB for the widest record).
    static constexpr std::size_t kBatchRecords = 1024;

    /// A stream's open holds: (key, open count) runs in ascending key
    /// order from `head`. Emitters open at the engine clock, so an open
    /// almost always appends a run or bumps the last one; a key below the
    /// last run is inserted at its place. Runs before `head` are closed,
    /// and they are dropped once they are at least half the vector.
    struct Holds {
        struct Run {
            double key;
            std::uint64_t count;
        };
        std::vector<Run> runs;
        std::size_t head = 0;

        void open(double key);
        /// False when no hold at `key` is open.
        bool close(double key);
        /// The earliest open key; +inf when none is open.
        [[nodiscard]] double earliest() const noexcept;
        [[nodiscard]] std::uint64_t open_count() const noexcept;
    };

    /// A record waiting for the watermark, with its tie-breakers.
    template <typename R>
    struct Waiting {
        std::uint32_t group;
        std::uint64_t seq;
        R rec;
    };
    /// One stream's records: the min-heap on (sort_key, group, seq) of
    /// those still waiting, and the released batch not yet encoded.
    template <typename R>
    struct Queue {
        std::vector<Waiting<R>> heap;
        std::vector<R> batch;
        std::size_t chunk_count = 0;  ///< released since the last spill check
    };

    template <typename R>
    void push(std::uint32_t group, std::uint64_t seq, const R& rec);
    void open(StreamId stream, double key);
    void close(StreamId stream, double key);
    /// Pop every record below the stream's watermark into its batch,
    /// flushing the batch and asking the writer to spill every
    /// chunk_records records. `drain_all` ignores the watermark
    /// (finish()).
    template <typename R>
    void release(Queue<R>& q, bool drain_all);
    template <typename R>
    void flush(Queue<R>& q);

    Options opts_;
    BinaryWriter writer_;
    std::function<double()> clock_;
    PerStream<Queue> queues_;
    std::array<Holds, kStreamCount> holds_;
    std::vector<std::unique_ptr<Sink>> shards_;
    std::uint64_t seen_ = 0;
    std::uint64_t pending_ = 0;       ///< records currently heap-buffered
    std::uint64_t pending_peak_ = 0;  ///< high-water mark of pending_
    std::uint64_t chunks_ = 0;        ///< spill checks, as chunks_flushed_total
    bool finished_ = false;
};

}  // namespace kooza::trace
