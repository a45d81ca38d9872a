#include "trace/sink.hpp"

#include <stdexcept>
#include <utility>

namespace kooza::trace {

// Out-of-line virtuals anchor the vtables in kooza_trace.
Sink::~Sink() = default;

void Sink::open_hold(StreamId, double) {}
void Sink::close_hold(StreamId, double) {}

SinkProvider::~SinkProvider() = default;

MemoryCapture::MemoryCapture(std::size_t n_groups) : groups_(n_groups) {
    if (n_groups == 0)
        throw std::invalid_argument("MemoryCapture: need at least one group");
}

TraceSet MemoryCapture::copy() const {
    TraceSet out;
    for (const auto& g : groups_) out.merge(g.ts);
    out.sort_by_time();
    return out;
}

TraceSet MemoryCapture::take() {
    TraceSet out = std::exchange(groups_.front().ts, TraceSet{});
    for (std::size_t g = 1; g < groups_.size(); ++g) {
        out.merge(groups_[g].ts);
        groups_[g].ts = TraceSet{};  // release the merged copy's source
    }
    out.sort_by_time();
    return out;
}

}  // namespace kooza::trace
