#include "trace/streaming.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>

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

/// Min-heap order on (sort_key, group, seq): std::push_heap keeps the
/// *largest* element first, so "later" is "larger".
struct Later {
    template <typename W>
    bool operator()(const W& a, const W& b) const noexcept {
        const double ka = sort_key(a.rec), kb = sort_key(b.rec);
        if (ka != kb) return ka > kb;
        if (a.group != b.group) return a.group > b.group;
        return a.seq > b.seq;
    }
};

/// `v` in its shortest round-trip form.
std::string shortest(double v) {
    char buf[32];
    return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
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
        owner_->push(group_, seq_[std::size_t(stream_of<R>())]++, rec);
    }

    StreamingSink* owner_;
    std::uint32_t group_;
    std::array<std::uint64_t, kStreamCount> seq_{};
};

void StreamingSink::Holds::open(double key) {
    if (runs.empty() || runs.back().key < key) {
        runs.push_back({key, 1});
    } else if (runs.back().key == key) {
        ++runs.back().count;
    } else {
        const auto it = std::lower_bound(
            runs.begin() + std::ptrdiff_t(head), runs.end(), key,
            [](const Run& r, double k) { return r.key < k; });
        if (it != runs.end() && it->key == key)
            ++it->count;
        else
            runs.insert(it, Run{key, 1});
    }
}

bool StreamingSink::Holds::close(double key) {
    const auto it = std::lower_bound(
        runs.begin() + std::ptrdiff_t(head), runs.end(), key,
        [](const Run& r, double k) { return r.key < k; });
    if (it == runs.end() || it->key != key || it->count == 0) return false;
    if (--it->count > 0) return true;
    // Move the head past closed runs; drop them once they are at least
    // half the vector (all of it when every hold is closed), so each run
    // is moved at most once on average.
    while (head < runs.size() && runs[head].count == 0) ++head;
    if (2 * head >= runs.size()) {
        runs.erase(runs.begin(), runs.begin() + std::ptrdiff_t(head));
        head = 0;
    }
    return true;
}

double StreamingSink::Holds::earliest() const noexcept {
    return head < runs.size() ? runs[head].key
                              : std::numeric_limits<double>::infinity();
}

std::uint64_t StreamingSink::Holds::open_count() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t i = head; i < runs.size(); ++i) n += runs[i].count;
    return n;
}

StreamingSink::StreamingSink(Options opts, std::size_t n_groups)
    : opts_(std::move(opts)), writer_(opts_.dir, opts_.spill_buffer_bytes) {
    if (n_groups == 0)
        throw std::invalid_argument("StreamingSink: need at least one group");
    if (opts_.chunk_records == 0)
        throw std::invalid_argument("StreamingSink: chunk_records must be > 0");
    std::apply([](auto&... q) { (q.batch.reserve(kBatchRecords), ...); }, queues_);
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

template <typename R>
void StreamingSink::push(std::uint32_t group, std::uint64_t seq, const R& rec) {
    if (finished_)
        throw std::logic_error("StreamingSink: append after finish()");
    auto& q = std::get<Queue<R>>(queues_);
    q.heap.push_back(Waiting<R>{group, seq, rec});
    std::push_heap(q.heap.begin(), q.heap.end(), Later{});
    ++seen_;
    pending_peak_ = std::max(pending_peak_, ++pending_);
    release(q, /*drain_all=*/false);
}

void StreamingSink::open(StreamId stream, double key) {
    holds_[std::size_t(stream)].open(key);
}

void StreamingSink::close(StreamId stream, double key) {
    if (!holds_[std::size_t(stream)].close(key))
        throw std::logic_error("StreamingSink: close_hold(" +
                               std::string(kStreamStems[std::size_t(stream)]) +
                               ", " + shortest(key) + ") without open_hold");
    visit_stream(stream, [this](const auto& s) {
        using R = typename std::remove_cvref_t<decltype(s)>::Record;
        release(std::get<Queue<R>>(queues_), /*drain_all=*/false);
    });
}

template <typename R>
void StreamingSink::release(Queue<R>& q, bool drain_all) {
    auto& heap = q.heap;
    if (heap.empty()) return;
    double watermark = std::numeric_limits<double>::infinity();
    if (!drain_all) {
        // A held key can still receive its record; the simulation clock
        // bounds streams with no open holds (an emitter can only produce
        // new records keyed at or after now).
        watermark = holds_[std::size_t(stream_of<R>())].earliest();
        if (!(sort_key(heap.front().rec) < watermark)) return;
        if (clock_) watermark = std::min(watermark, clock_());
    }
    while (!heap.empty() && (drain_all || sort_key(heap.front().rec) < watermark)) {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        q.batch.push_back(heap.back().rec);
        heap.pop_back();
        --pending_;
        if (++q.chunk_count >= opts_.chunk_records) {
            flush(q);
            writer_.spill_full_columns();
            q.chunk_count = 0;
            ++chunks_;
        } else if (q.batch.size() == kBatchRecords) {
            flush(q);
        }
    }
}

template <typename R>
void StreamingSink::flush(Queue<R>& q) {
    writer_.append(std::span<const R>(q.batch));
    q.batch.clear();
}

void StreamingSink::finish() {
    if (finished_) return;
    for (std::size_t i = 0; i < holds_.size(); ++i)
        if (const auto open = holds_[i].open_count(); open > 0)
            throw std::logic_error(
                "StreamingSink::finish: stream " + std::to_string(i) + " has " +
                std::to_string(open) + " open holds (emitter leaked a hold)");
    auto drain = [this](auto& q) {
        release(q, /*drain_all=*/true);
        flush(q);
        if (q.chunk_count > 0) {
            q.chunk_count = 0;
            ++chunks_;
        }
    };
    std::apply([&drain](auto&... q) { (drain(q), ...); }, queues_);
    writer_.finish();
    finished_ = true;
    auto& m = metrics();
    m.records.add(seen_);
    m.chunks.add(chunks_);
    m.pending.set(double(pending_peak_));
    m.pending.set(0.0);
}

}  // namespace kooza::trace
