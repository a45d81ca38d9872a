#include "trace/streaming.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace kooza::trace {

namespace {

struct StreamMetrics {
    obs::Counter& records = obs::counter("trace.stream.records_total");
    obs::Counter& chunks = obs::counter("trace.stream.chunks_flushed_total");
    obs::Gauge& pending = obs::gauge("trace.stream.pending_records");
};

StreamMetrics& metrics() {
    static StreamMetrics m;
    return m;
}

}  // namespace

/// One server group's Sink facade: tags records with (group, per-stream
/// sequence) and forwards them — and the hold protocol — to the owner.
class StreamingShard final : public Sink {
public:
    StreamingShard(StreamingSink& owner, std::uint32_t group) noexcept
        : owner_(&owner), group_(group) {}

    void append(const StorageRecord& r) override { push(r); }
    void append(const CpuRecord& r) override { push(r); }
    void append(const MemoryRecord& r) override { push(r); }
    void append(const NetworkRecord& r) override { push(r); }
    void append(const RequestRecord& r) override { push(r); }
    void append(const FailureRecord& r) override { push(r); }
    void append(const Span& s) override { push(s); }

    void open_hold(StreamId stream, double key) override {
        owner_->open(stream, key);
    }
    void close_hold(StreamId stream, double key) override {
        owner_->close(stream, key);
    }

private:
    template <typename R>
    void push(const R& rec) {
        AnyRecord any(rec);
        const auto seq = seq_[any.index()]++;
        owner_->push(group_, seq, sort_key(rec), std::move(any));
    }

    StreamingSink* owner_;
    std::uint32_t group_;
    std::array<std::uint64_t, kStreamCount> seq_{};
};

StreamingSink::StreamingSink(Options opts, std::size_t n_groups)
    : opts_(std::move(opts)), writer_(opts_.dir, opts_.spill_buffer_bytes) {
    if (n_groups == 0)
        throw std::invalid_argument("StreamingSink: need at least one group");
    if (opts_.chunk_records == 0)
        throw std::invalid_argument("StreamingSink: chunk_records must be > 0");
    shards_.reserve(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g)
        shards_.push_back(
            std::make_unique<StreamingShard>(*this, std::uint32_t(g)));
}

Sink& StreamingSink::group(std::size_t g) {
    if (g >= shards_.size())
        throw std::out_of_range("StreamingSink::group: " + std::to_string(g));
    return *shards_[g];
}

void StreamingSink::push(std::uint32_t group, std::uint64_t seq, double key,
                         AnyRecord rec) {
    if (finished_)
        throw std::logic_error("StreamingSink: append after finish()");
    auto& st = streams_[rec.index()];
    st.heap.push(Pending{key, group, seq, std::move(rec)});
    ++seen_;
    ++pending_;
    metrics().records.add();
    metrics().pending.set(double(pending_));
    release(st, /*drain_all=*/false);
}

void StreamingSink::open(StreamId stream, double key) {
    streams_[std::size_t(stream)].holds.insert(key);
}

void StreamingSink::close(StreamId stream, double key) {
    auto& st = streams_[std::size_t(stream)];
    const auto it = st.holds.find(key);
    if (it == st.holds.end())
        throw std::logic_error("StreamingSink: close_hold without open_hold");
    st.holds.erase(it);
    release(st, /*drain_all=*/false);
}

void StreamingSink::release(StreamState& st, bool drain_all) {
    double watermark = std::numeric_limits<double>::infinity();
    if (!drain_all) {
        // A held key can still receive its record; the simulation clock
        // bounds streams with no open holds (an emitter can only produce
        // new records keyed at or after now).
        if (!st.holds.empty()) watermark = *st.holds.begin();
        if (clock_) watermark = std::min(watermark, clock_());
    }
    while (!st.heap.empty() &&
           (drain_all || st.heap.top().key < watermark)) {
        writer_.append(st.heap.top().rec);
        st.heap.pop();
        --pending_;
        if (++st.chunk_count >= opts_.chunk_records) {
            writer_.spill_full_columns();
            st.chunk_count = 0;
            metrics().chunks.add();
        }
    }
}

void StreamingSink::finish() {
    if (finished_) return;
    for (std::size_t i = 0; i < streams_.size(); ++i)
        if (!streams_[i].holds.empty())
            throw std::logic_error(
                "StreamingSink::finish: stream " + std::to_string(i) + " has " +
                std::to_string(streams_[i].holds.size()) +
                " open holds (emitter leaked a hold)");
    for (auto& st : streams_) {
        release(st, /*drain_all=*/true);
        if (st.chunk_count > 0) {
            st.chunk_count = 0;
            metrics().chunks.add();
        }
    }
    metrics().pending.set(0.0);
    writer_.finish();
    finished_ = true;
}

}  // namespace kooza::trace
