#include "gfs/admission.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace kooza::gfs {

namespace {
struct AdmissionMetrics {
    obs::Counter& admitted = obs::counter("gfs.server.admission.admitted_total");
    obs::Counter& queued = obs::counter("gfs.server.admission.queued_total");
    obs::Counter& rejected = obs::counter("gfs.server.admission.rejected_total");
    obs::Gauge& tickets = obs::gauge("gfs.server.admission.tickets");
};

AdmissionMetrics& metrics() {
    static AdmissionMetrics m;
    return m;
}
}  // namespace

AdmissionController::AdmissionController(sim::Engine& engine, std::uint32_t server,
                                         AdmissionConfig cfg)
    : engine_(engine), server_(server), cfg_(cfg) {
    cfg_.min_tickets = std::max<std::uint32_t>(cfg_.min_tickets, 1);
    cfg_.max_tickets = std::max(cfg_.max_tickets, cfg_.min_tickets);
    tickets_ = std::clamp(cfg_.initial_tickets, cfg_.min_tickets, cfg_.max_tickets);
    best_tickets_ = tickets_;
    metrics().tickets.set(double(tickets_));
    arm_probe();
}

bool AdmissionController::admit(sim::EventFn op, sim::EventFn on_reject) {
    // Grant synchronously only when nobody is already waiting, so queued
    // ops keep FIFO order across ticket-count changes.
    if (queue_.empty() && in_flight_ < tickets_) {
        ++in_flight_;
        ++admitted_;
        metrics().admitted.add();
        op();
        return true;
    }
    // A caller with no rejection path always queues: dropping its op
    // would leak the request. Otherwise the policy (and queue bound)
    // decides between waiting and bouncing.
    if (!on_reject || (cfg_.queue && queue_.size() < cfg_.queue_limit)) {
        queue_.push_back(std::move(op));
        metrics().queued.add();
        return true;
    }
    ++rejected_;
    metrics().rejected.add();
    engine_.schedule_after(0.0, std::move(on_reject));
    return false;
}

void AdmissionController::release() {
    ++completed_;
    ++window_completions_;
    if (in_flight_ > 0) --in_flight_;
    drain_queue();
}

void AdmissionController::drain_queue() {
    while (!queue_.empty() && in_flight_ < tickets_) {
        auto op = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
        ++admitted_;
        metrics().admitted.add();
        op();
    }
}

std::uint32_t AdmissionController::step_size() const noexcept {
    return std::max<std::uint32_t>(1, best_tickets_ / 4);
}

void AdmissionController::arm_probe() {
    if (cfg_.probe_interval <= 0.0) return;  // static ticket count
    // Daemon events never keep Engine::run() alive, so the probe chain
    // dies with the workload instead of spinning an idle cluster forever.
    engine_.schedule_daemon_at(engine_.now() + cfg_.probe_interval, [this] {
        probe();
        arm_probe();
    });
}

void AdmissionController::probe() {
    ++probes_;
    auto& w = windows_[tickets_];
    w.completions += double(window_completions_);
    ++w.windows;
    window_completions_ = 0;

    // Cumulative goodput per visited ticket count. A lone probe window
    // carries only a handful of completions — far noisier than the
    // hysteresis band — so every decision runs on the per-count averages,
    // which sharpen as counts are revisited.
    best_goodput_ = 0.0;
    for (const auto& [t, s] : windows_)
        best_goodput_ = std::max(
            best_goodput_, s.completions / (double(s.windows) * cfg_.probe_interval));
    for (const auto& [t, s] : windows_) {  // ordered: first hit = smallest
        const double g = s.completions / (double(s.windows) * cfg_.probe_interval);
        if (g >= best_goodput_ * (1.0 - cfg_.hysteresis)) {
            best_tickets_ = t;
            break;
        }
    }

    // Explore around the current best in a fixed above/below/re-measure
    // cycle. Re-measuring the best itself is essential: otherwise one
    // lucky window could hold the title forever.
    const std::uint32_t step = step_size();
    std::uint32_t next = best_tickets_;
    if (phase_ == 0)
        next = best_tickets_ + step;
    else if (phase_ == 1)
        next = best_tickets_ > step ? best_tickets_ - step : cfg_.min_tickets;
    phase_ = (phase_ + 1) % 3;
    tickets_ = std::clamp(next, cfg_.min_tickets, cfg_.max_tickets);
    metrics().tickets.set(double(tickets_));
    drain_queue();
}

}  // namespace kooza::gfs
