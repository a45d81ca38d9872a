#include "trace/span.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "trace/sink.hpp"

namespace kooza::trace {

namespace {

/// The interned span names. texts_ is a deque, so a name's text never
/// moves once interned: ids_ keys and str() references point into it.
class NameTable {
public:
    NameTable() : texts_(1) { ids_.emplace(texts_.front(), 0); }

    std::uint32_t intern(std::string_view text) {
        const std::lock_guard lock(mu_);
        const auto it = ids_.find(text);
        if (it != ids_.end()) return it->second;
        if (texts_.size() > std::numeric_limits<std::uint32_t>::max())
            throw std::length_error("SpanName: more distinct names than ids");
        const auto id = std::uint32_t(texts_.size());
        ids_.emplace(texts_.emplace_back(text), id);
        return id;
    }

    const std::string& text(std::uint32_t id) {
        const std::lock_guard lock(mu_);
        return texts_[id];
    }

private:
    std::mutex mu_;
    std::deque<std::string> texts_;  ///< by id; id 0 is ""
    std::unordered_map<std::string_view, std::uint32_t> ids_;
};

/// Leaked like obs::Registry::global(), so spans outlive static destruction.
NameTable& names() {
    static auto* table = new NameTable;
    return *table;
}

}  // namespace

SpanName::SpanName(std::string_view text) : id_(names().intern(text)) {}

const std::string& SpanName::str() const { return names().text(id_); }

std::ostream& operator<<(std::ostream& os, SpanName name) { return os << name.str(); }

SpanTracer::SpanTracer(std::uint64_t sample_every, Sink& sink)
    : every_(sample_every), sink_(sink) {
    if (sample_every == 0)
        throw std::invalid_argument("SpanTracer: sample_every must be >= 1");
}

bool SpanTracer::sampled(TraceId trace) const noexcept { return trace % every_ == 0; }

SpanId SpanTracer::start_span(TraceId trace, SpanId parent, SpanName name,
                              double now) {
    ++ops_req_;
    if (!sampled(trace)) return 0;
    ++ops_rec_;
    const SpanId id = next_id_++;
    open_.push_back(
        Slot{Span{trace, id, parent, name, now, now}, &phase_histogram(name)});
    // The span is keyed at its start but only appended when it closes,
    // so hold the spans stream until then.
    sink_.open_hold(StreamId::kSpans, now);
    return id;
}

void SpanTracer::end_span(SpanId span, double now) {
    ++ops_req_;
    if (span == 0) return;
    if (span < base_ + head_ || span >= next_id_ || open_[span - base_].hist == nullptr)
        throw std::logic_error("SpanTracer::end_span: unknown or closed span");
    ++ops_rec_;
    Slot& slot = open_[span - base_];
    slot.span.end = now;
    slot.hist->observe_seconds(now - slot.span.start);
    slot.hist = nullptr;
    sink_.append(slot.span);
    sink_.close_hold(StreamId::kSpans, slot.span.start);
    // Move the head past closed slots; drop them once they are at least
    // half the table, so each slot is moved at most once on average.
    while (head_ < open_.size() && open_[head_].hist == nullptr) ++head_;
    if (2 * head_ >= open_.size()) {
        open_.erase(open_.begin(), open_.begin() + std::ptrdiff_t(head_));
        base_ += head_;
        head_ = 0;
    }
}

obs::Histogram& SpanTracer::phase_histogram(SpanName name) {
    if (name.id() >= phase_hist_.size()) phase_hist_.resize(name.id() + 1, nullptr);
    auto& h = phase_hist_[name.id()];
    if (h == nullptr)
        h = &obs::histogram("trace.phase." + name.str() + ".duration_ns",
                            obs::Unit::kNanoseconds);
    return *h;
}

SpanTree::SpanTree(const std::vector<Span>& all, TraceId trace) : trace_(trace) {
    for (const auto& s : all)
        if (s.trace_id == trace) spans_.push_back(s);
    if (spans_.empty()) throw std::invalid_argument("SpanTree: no spans for trace");
    // Order by start time; ties break on creation order (span id), which
    // puts a parent before children opened at the same instant.
    std::stable_sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
        if (a.start != b.start) return a.start < b.start;
        return a.span_id < b.span_id;
    });
    // Validate there is exactly one root.
    std::size_t roots = 0;
    for (const auto& s : spans_)
        if (s.parent_id == 0) ++roots;
    if (roots == 0) throw std::invalid_argument("SpanTree: no root span");
}

const Span& SpanTree::root() const {
    for (const auto& s : spans_)
        if (s.parent_id == 0) return s;
    throw std::logic_error("SpanTree::root: unreachable");
}

std::vector<const Span*> SpanTree::children_of(SpanId parent) const {
    std::vector<const Span*> out;
    for (const auto& s : spans_)
        if (s.parent_id == parent) out.push_back(&s);
    return out;
}

std::vector<std::string> SpanTree::phase_sequence() const {
    std::vector<std::string> out;
    out.reserve(spans_.size());
    for (const auto& s : spans_) out.push_back(s.name.str());
    return out;
}

std::vector<double> SpanTree::phase_durations() const {
    std::vector<double> out;
    out.reserve(spans_.size());
    for (const auto& s : spans_) out.push_back(s.duration());
    return out;
}

double SpanTree::total_duration() const { return root().duration(); }

void SpanTree::render_node(const Span& s, int depth, std::string& out) const {
    std::ostringstream os;
    os << std::string(std::size_t(depth) * 2, ' ') << s.name << " ["
       << s.duration() * 1e3 << " ms]";
    os << "\n";
    out += os.str();
    for (const Span* c : children_of(s.span_id)) render_node(*c, depth + 1, out);
}

std::string SpanTree::render() const {
    std::string out;
    render_node(root(), 0, out);
    return out;
}

std::vector<TraceId> SpanTree::trace_ids(const std::vector<Span>& all) {
    std::set<TraceId> ids;
    for (const auto& s : all) ids.insert(s.trace_id);
    return {ids.begin(), ids.end()};
}

}  // namespace kooza::trace
