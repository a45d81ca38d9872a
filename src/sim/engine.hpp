// Discrete-event simulation engine.
//
// The engine owns a priority queue of timestamped callbacks and a simulated
// clock. All simulator components (device models, GFS servers, queueing
// stations) schedule work against one shared Engine. Events scheduled for
// the same timestamp fire in FIFO order of scheduling, which keeps runs
// deterministic for a fixed seed.
//
// Hot-path layout (see DESIGN.md "Event core"): callbacks are sim::EventFn
// (48-byte inline callables, no per-event heap allocation) held in blocks
// of a slab/free-list EventArena and recycled on dispatch, and the queue
// is one binary heap of (at, seq) entries plus a front slot that holds the
// earliest pending event outside the heap. An event scheduled earlier than
// everything pending — the next step of a chain that just ran, most often
// — takes the slot and is dispatched without a heap push or pop. The
// pipeline's sources (capture's and replay's schedule pumps) keep
// O(in-flight) events pending, so the heap stays a few levels deep.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/eventfn.hpp"

namespace kooza::sim {

/// Simulated time in seconds. Double precision gives ~microsecond
/// resolution over multi-hour simulated horizons, which is ample for
/// millisecond-scale datacenter requests.
using Time = double;

/// Discrete-event engine: a simulated clock plus an event queue.
///
/// Usage:
///   Engine eng;
///   eng.schedule_after(0.5, []{ ... });
///   eng.run();
class Engine {
public:
    Engine() = default;
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;
    ~Engine();

    /// Current simulated time. Starts at 0.
    [[nodiscard]] Time now() const noexcept { return now_; }

    /// Schedule `action` at absolute simulated time `at`.
    /// Throws std::invalid_argument if `at` precedes the current time or
    /// is not finite (NaN/±inf would corrupt the dispatch order).
    template <typename F>
    void schedule_at(Time at, F&& action) {
        check_action(action);
        push_event(at, false, std::forward<F>(action));
    }

    /// Schedule `action` `delay` seconds after the current time.
    /// Negative or non-finite delays are rejected.
    template <typename F>
    void schedule_after(Time delay, F&& action) {
        if (delay < 0.0)
            throw std::invalid_argument("Engine::schedule_after: negative delay");
        check_action(action);
        push_event(now_ + delay, false, std::forward<F>(action));
    }

    /// Schedule a *daemon* event: it fires like a normal event but does
    /// not keep run() alive. run() returns once every non-daemon event
    /// has executed, leaving unfired daemon events in the queue. Used for
    /// open-ended background processes (lazy fault plans) that must not
    /// turn a finite simulation into an infinite one.
    template <typename F>
    void schedule_daemon_at(Time at, F&& action) {
        check_action(action);
        push_event(at, true, std::forward<F>(action));
    }

    /// Run until all *non-daemon* events drain or stop() is called.
    /// Returns the number of events executed.
    std::uint64_t run();

    /// Run until simulated time would exceed `deadline` (events at exactly
    /// `deadline` still execute). Returns the number of events executed.
    /// The clock is advanced to `deadline` on return — unless stop() was
    /// called mid-run, in which case it stays at the last event's time.
    std::uint64_t run_until(Time deadline);

    /// Execute exactly one event if any is pending. Returns true if one ran.
    bool step();

    /// Request that run()/run_until() return after the current event.
    void stop() noexcept { stopped_ = true; }

    /// True if no events are pending.
    [[nodiscard]] bool empty() const noexcept { return !has_front_ && heap_.empty(); }

    /// Number of pending events.
    [[nodiscard]] std::size_t pending() const noexcept {
        return heap_.size() + (has_front_ ? 1 : 0);
    }

    /// Total events executed since construction.
    [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

    /// The slab allocator the queued callbacks live in (observability).
    [[nodiscard]] const EventArena& arena() const noexcept { return arena_; }

private:
    /// std::function (and function pointers) carry an "empty" state the
    /// engine must reject eagerly — an empty callable would otherwise blow
    /// up mid-simulation at dispatch time. Lambdas have no such state and
    /// skip the check entirely.
    template <typename F>
    static void check_action(const F& f) {
        if constexpr (requires { static_cast<bool>(f); }) {
            if (!static_cast<bool>(f))
                throw std::invalid_argument("Engine::schedule_at: empty action");
        }
    }

    /// One pending event. The heap orders entries by (at, seq); the
    /// callback stays put in its arena block while entries move.
    struct Event {
        Time at;
        /// seq << 1 | daemon. seq breaks ties FIFO among equal timestamps
        /// and is unique, so the daemon bit never decides an order.
        std::uint64_t key;
        EventFn* fn;
        [[nodiscard]] bool daemon() const noexcept { return key & 1; }
    };
    /// std::push_heap keeps the greatest element on top; "greatest" here
    /// is the earliest (at, seq).
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.key > b.key;
        }
    };

    /// Construct the callback in an arena block and enqueue it. The
    /// callable is materialized directly into the block's EventFn, so
    /// steady-state scheduling performs zero relocations and zero heap
    /// allocations.
    template <typename F>
    void push_event(Time at, bool daemon, F&& action) {
        // NaN compares false against everything, so the `at < now_` guard
        // alone would wave non-finite timestamps straight into the queue
        // and corrupt the dispatch order. Reject them explicitly.
        if (!std::isfinite(at))
            throw std::invalid_argument("Engine::schedule_at: non-finite time");
        if (at < now_)
            throw std::invalid_argument("Engine::schedule_at: time in the past");
        auto* fn = ::new (arena_.allocate()) EventFn(std::forward<F>(action));
        const Event e{at, next_seq_++ << 1 | std::uint64_t(daemon), fn};
        // The slot holds the earliest pending event: a new event takes it
        // when it is earlier than the slot's event, or than the heap's top
        // when the slot is empty; a displaced event joins the heap.
        if (has_front_ ? Later{}(front_, e)
                       : heap_.empty() || Later{}(heap_.front(), e)) {
            if (has_front_) heap_push(front_);
            front_ = e;
            has_front_ = true;
        } else {
            heap_push(e);
        }
        if (!daemon) ++live_;
        ++tally_scheduled_;
        if (pending() > depth_peak_) depth_peak_ = pending();
    }

    void heap_push(const Event& e) {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /// The earliest pending event; the queue must not be empty.
    [[nodiscard]] const Event& earliest() const noexcept {
        return has_front_ ? front_ : heap_.front();
    }

    /// Fold the engine-local tallies into the process-wide obs registry.
    /// Called at run()/run_until() exit and from the destructor, so the
    /// per-event hot path never touches an atomic.
    void flush_metrics() noexcept;

    Time now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t live_ = 0;  ///< pending non-daemon events
    bool stopped_ = false;

    // Batched obs tallies (flushed by flush_metrics).
    std::uint64_t tally_scheduled_ = 0;
    std::uint64_t tally_dispatched_ = 0;
    std::size_t depth_peak_ = 0;  ///< lifetime queue-depth high-water mark

    EventArena arena_;  ///< declared before heap_: callbacks live in it
    std::vector<Event> heap_;
    /// The earliest pending event, when has_front_; never also in heap_.
    Event front_{};
    bool has_front_ = false;
};

}  // namespace kooza::sim
