// Ticket-based admission / concurrency controller for a chunkserver.
//
// Modeled on MongoDB's execution-control ticket pools (SNIPPETS.md #1): a
// fixed pool of concurrency tickets gates how many requests execute on
// the server at once. Requests arriving with no free ticket either wait
// in a bounded FIFO (queue policy) or are bounced back to the client
// (reject policy). A probe-and-adapt loop periodically measures goodput
// (ticket releases per probe interval) and accumulates it *per ticket
// count* — a single 250 ms window holds only a handful of completions,
// so averaging every window a count has owned is what makes the estimate
// usable. `best_tickets()` is the smallest visited count whose cumulative
// goodput is within the hysteresis band of the best — the same
// smallest-within-band criterion an offline sweep uses — and each probe
// re-measures the current best or one of its ±step neighbours in turn,
// so the estimate keeps sharpening instead of freezing on a lucky window.
//
// Determinism: grants and releases are synchronous inside the caller's
// event; rejections and probe steps are engine events. Nothing here draws
// randomness, so captures stay byte-identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>

#include "gfs/config.hpp"
#include "sim/engine.hpp"

namespace kooza::gfs {

class AdmissionController {
public:
    AdmissionController(sim::Engine& engine, std::uint32_t server,
                        AdmissionConfig cfg);

    AdmissionController(const AdmissionController&) = delete;
    AdmissionController& operator=(const AdmissionController&) = delete;

    /// Run `op` now if a ticket is free, queue it if the wait queue has
    /// room, otherwise schedule `on_reject` and return false: a bounced op
    /// never runs. An empty `on_reject` means the caller cannot handle
    /// rejection: the op queues past the limit rather than being dropped.
    /// Every admitted op MUST release().
    bool admit(sim::EventFn op, sim::EventFn on_reject);

    /// Return the ticket held by a completed op; hands it to the queue
    /// head when one is waiting. Counts toward the probe window goodput.
    void release();

    [[nodiscard]] std::uint32_t tickets() const noexcept { return tickets_; }
    /// Smallest ticket count within the hysteresis band of the best
    /// goodput seen so far — the controller's convergence target.
    [[nodiscard]] std::uint32_t best_tickets() const noexcept { return best_tickets_; }
    [[nodiscard]] double best_goodput() const noexcept {
        return best_goodput_ < 0.0 ? 0.0 : best_goodput_;
    }
    [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }
    [[nodiscard]] std::size_t queue_depth() const noexcept { return queue_.size(); }
    [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
    [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
    [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
    [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }
    [[nodiscard]] std::uint32_t server() const noexcept { return server_; }
    [[nodiscard]] const AdmissionConfig& config() const noexcept { return cfg_; }

private:
    void arm_probe();
    void probe();
    void drain_queue();
    [[nodiscard]] std::uint32_t step_size() const noexcept;

    sim::Engine& engine_;
    std::uint32_t server_;
    AdmissionConfig cfg_;

    std::uint32_t tickets_;
    std::size_t in_flight_ = 0;
    std::deque<sim::EventFn> queue_;

    // Probe state: cumulative goodput per visited ticket count, explored
    // in a best / best+step / best-step cycle.
    struct WindowStats {
        double completions = 0.0;
        std::uint64_t windows = 0;
    };
    std::map<std::uint32_t, WindowStats> windows_;
    double best_goodput_ = -1.0;  ///< <0 until the first probe window closes
    std::uint32_t best_tickets_;
    int phase_ = 0;  ///< 0 = probe above, 1 = probe below, 2 = re-measure best
    std::uint64_t window_completions_ = 0;

    std::uint64_t admitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t probes_ = 0;
};

}  // namespace kooza::gfs
