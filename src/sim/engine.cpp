#include "sim/engine.hpp"

#include "obs/metrics.hpp"

namespace kooza::sim {

namespace {

// Process-wide engine metrics, shared by every Engine (including the
// per-shard engines of replay_sharded — counters merge commutatively, and
// the depth gauge's max is interleaving-independent). Engines accumulate
// locally and flush here at run boundaries.
struct EngineMetrics {
    obs::Counter& scheduled = obs::counter("sim.engine.events_scheduled_total");
    obs::Counter& dispatched = obs::counter("sim.engine.events_dispatched_total");
    // High-water-only: the deepest the queue has ever been. There is no
    // "current depth" metric — with batched flushing a point-in-time
    // sample would be stale by construction.
    obs::Gauge& depth_peak = obs::gauge("sim.engine.queue_depth_peak");
};

EngineMetrics& metrics() {
    static EngineMetrics m;
    return m;
}

}  // namespace

Engine::~Engine() {
    // Unfired events (daemon chains, post-stop leftovers) still own arena
    // blocks; destroy them before the arena goes away.
    const auto destroy = [this](const Event& e) {
        e.fn->~EventFn();
        arena_.deallocate(e.fn);
    };
    if (has_front_) destroy(front_);
    for (const Event& e : heap_) destroy(e);
    flush_metrics();
}

bool Engine::step() {
    if (!has_front_) {
        if (heap_.empty()) return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        front_ = heap_.back();
        heap_.pop_back();
    }
    has_front_ = false;
    const Event e = front_;
    now_ = e.at;
    if (!e.daemon()) --live_;
    ++executed_;
    ++tally_dispatched_;
    // Invoke the callback straight out of its block — no relocation — and
    // recycle the block after it returns (exception-safe via the guard).
    // The common schedule-from-an-event pattern then reuses the block
    // freed by the previous dispatch, keeping the arena footprint flat.
    struct Recycle {
        EventArena* arena;
        EventFn* fn;
        ~Recycle() {
            fn->~EventFn();
            arena->deallocate(fn);
        }
    } recycle{&arena_, e.fn};
    (*e.fn)();
    return true;
}

std::uint64_t Engine::run() {
    stopped_ = false;
    std::uint64_t n = 0;
    while (!stopped_ && live_ > 0 && step()) ++n;
    flush_metrics();
    return n;
}

std::uint64_t Engine::run_until(Time deadline) {
    stopped_ = false;
    std::uint64_t n = 0;
    while (!stopped_) {
        if (empty() || earliest().at > deadline) break;
        step();
        ++n;
    }
    if (!stopped_ && now_ < deadline) now_ = deadline;
    flush_metrics();
    return n;
}

void Engine::flush_metrics() noexcept {
    if (tally_scheduled_ == 0 && tally_dispatched_ == 0) return;
    auto& m = metrics();
    m.scheduled.add(tally_scheduled_);
    m.dispatched.add(tally_dispatched_);
    m.depth_peak.set(double(depth_peak_));
    tally_scheduled_ = 0;
    tally_dispatched_ = 0;
}

}  // namespace kooza::sim
