// The pluggable trace sink — where simulation layers (hw devices, gfs
// cluster, span tracer, fault injector) deliver capture records. Every
// emitter writes through a Sink, and a simulation's records leave it
// through a SinkProvider, one Sink per server group.
//
// Two providers exist:
//   - MemoryCapture (here): one in-memory TraceSet per group, put in
//     canonical order when the capture is read back.
//   - StreamingSink (streaming.hpp): orders records online in typed
//     per-stream heaps and appends the released ones, in batches, to a
//     BinaryWriter that spills its columns to disk, so a capture's peak
//     memory stays flat however long the run is.
//
// The hold protocol: device records are *keyed* at issue time but only
// *emitted* at completion, so a streaming sink cannot flush a timestamp
// until every I/O issued at-or-before it has landed. An emitter that
// knows a record with key `k` is coming calls open_hold(stream, k) at
// issue and close_hold(stream, k) after the matching append (or after
// deciding no record will be emitted). Every emitter opens at the
// engine clock, which StreamingSink's sorted hold runs make an append;
// any key the stream's watermark has not passed is allowed. Closing a
// hold that is not open is an error (StreamingSink throws
// std::logic_error naming the stream and the key). MemorySink ignores
// holds.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/schema.hpp"
#include "trace/traceset.hpp"

namespace kooza::trace {

class Sink {
public:
    Sink() = default;
    Sink(const Sink&) = delete;
    Sink& operator=(const Sink&) = delete;
    virtual ~Sink();

    virtual void append(const StorageRecord& r) = 0;
    virtual void append(const CpuRecord& r) = 0;
    virtual void append(const MemoryRecord& r) = 0;
    virtual void append(const NetworkRecord& r) = 0;
    virtual void append(const RequestRecord& r) = 0;
    virtual void append(const FailureRecord& r) = 0;
    virtual void append(const Span& s) = 0;

    /// Announce that a record keyed at `key` will (or may) be appended to
    /// `stream` later. Must be balanced by close_hold with the same key.
    virtual void open_hold(StreamId stream, double key);
    /// Release a hold opened with open_hold. Call *after* the matching
    /// append, or instead of it when the record turned out not to exist.
    virtual void close_hold(StreamId stream, double key);
};

/// The in-memory collector: records land in a caller-owned TraceSet in
/// emission order.
class MemorySink final : public Sink {
public:
    explicit MemorySink(TraceSet& ts) noexcept : ts_(&ts) {}

    void append(const StorageRecord& r) override { ts_->storage.push_back(r); }
    void append(const CpuRecord& r) override { ts_->cpu.push_back(r); }
    void append(const MemoryRecord& r) override { ts_->memory.push_back(r); }
    void append(const NetworkRecord& r) override { ts_->network.push_back(r); }
    void append(const RequestRecord& r) override { ts_->requests.push_back(r); }
    void append(const FailureRecord& r) override { ts_->failures.push_back(r); }
    void append(const Span& s) override { ts_->spans.push_back(s); }

private:
    TraceSet* ts_;
};

/// A family of sinks sharded by server group, so multi-emitter captures
/// stay deterministic: group 0 collects cluster-level records (clients,
/// master, fault injector, spans), group 1+s collects chunkserver s.
class SinkProvider {
public:
    SinkProvider() = default;
    SinkProvider(const SinkProvider&) = delete;
    SinkProvider& operator=(const SinkProvider&) = delete;
    virtual ~SinkProvider();

    virtual Sink& group(std::size_t g) = 0;
    [[nodiscard]] virtual std::size_t group_count() const = 0;
};

/// The in-memory provider: group g is a MemorySink over its own TraceSet.
/// A materialized capture is put in canonical order here and only here:
/// the groups concatenated in index order, then TraceSet::sort_by_time's
/// stable per-stream sort, which is the order StreamingSink writes.
class MemoryCapture final : public SinkProvider {
public:
    /// `n_groups` >= 1 (std::invalid_argument otherwise).
    explicit MemoryCapture(std::size_t n_groups);

    Sink& group(std::size_t g) override { return groups_.at(g).sink; }
    [[nodiscard]] std::size_t group_count() const override { return groups_.size(); }

    /// Group `g`'s records in emission order.
    [[nodiscard]] const TraceSet& records(std::size_t g) const { return groups_.at(g).ts; }

    /// Every group's records in canonical order; the groups keep theirs.
    [[nodiscard]] TraceSet copy() const;

    /// Like copy(), but moves the records out and empties each group as
    /// it is merged, so peak memory stays about one group above the
    /// captured total. The groups keep recording afterwards.
    [[nodiscard]] TraceSet take();

private:
    struct Group {
        TraceSet ts;
        MemorySink sink{ts};
    };
    std::vector<Group> groups_;
};

}  // namespace kooza::trace
