#include "gfs/faults.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "sim/rng.hpp"

namespace kooza::gfs {

namespace {

struct FaultMetrics {
    obs::Counter& crashes = obs::counter("gfs.faults.crashes_total");
    obs::Counter& recoveries = obs::counter("gfs.faults.recoveries_total");
    obs::Counter& repairs = obs::counter("gfs.faults.repairs_total");
    obs::Counter& repair_bytes =
        obs::counter("gfs.faults.re_replication_bytes_total", obs::Unit::kBytes);
};

FaultMetrics& metrics() {
    static FaultMetrics m;
    return m;
}

}  // namespace

FaultPlan make_fault_plan(const FaultConfig& cfg, std::size_t n_servers,
                          std::uint64_t cluster_seed) {
    if (cfg.mtbf <= 0.0 || cfg.mttr <= 0.0)
        throw std::invalid_argument("make_fault_plan: mtbf/mttr must be > 0");
    if (cfg.horizon <= 0.0)
        throw std::invalid_argument("make_fault_plan: horizon must be > 0");
    const std::uint64_t effective =
        cfg.seed != 0 ? cfg.seed
                      : par::splitmix64(cluster_seed ^ 0xFA17B0A7ull);
    FaultPlan plan;
    for (std::size_t s = 0; s < n_servers; ++s) {
        // One decorrelated stream per server, keyed on (seed, server)
        // only — never on thread count or iteration order.
        sim::Rng rng(par::shard_seed(effective, s));
        double t = 0.0;
        for (;;) {
            t += rng.exponential(1.0 / cfg.mtbf);
            if (t >= cfg.horizon) break;
            plan.push_back(FaultEvent{t, std::uint32_t(s), true});
            t += rng.exponential(1.0 / cfg.mttr);
            if (t >= cfg.horizon) break;
            plan.push_back(FaultEvent{t, std::uint32_t(s), false});
        }
    }
    std::sort(plan.begin(), plan.end(), [](const FaultEvent& a, const FaultEvent& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.server < b.server;
    });
    return plan;
}

FaultInjector::FaultInjector(sim::Engine& engine, const GfsConfig& cfg, Master& master,
                             std::vector<std::unique_ptr<ChunkServer>>& servers,
                             trace::Sink& sink)
    : engine_(engine), cfg_(cfg), master_(master), servers_(servers), sink_(sink) {}

void FaultInjector::schedule(FaultPlan plan) {
    if (!plan_.empty() || lazy_)
        throw std::logic_error("FaultInjector::schedule: plan already scheduled");
    plan_ = std::move(plan);
    for (const auto& ev : plan_)
        engine_.schedule_at(ev.time, [this, ev] { apply(ev); });
}

void FaultInjector::schedule_lazy(std::size_t n_servers, std::uint64_t cluster_seed) {
    if (!plan_.empty() || lazy_)
        throw std::logic_error("FaultInjector::schedule_lazy: plan already scheduled");
    if (cfg_.faults.mtbf <= 0.0 || cfg_.faults.mttr <= 0.0)
        throw std::invalid_argument("schedule_lazy: mtbf/mttr must be > 0");
    lazy_ = true;
    const std::uint64_t effective =
        cfg_.faults.seed != 0 ? cfg_.faults.seed
                              : par::splitmix64(cluster_seed ^ 0xFA17B0A7ull);
    for (std::size_t s = 0; s < n_servers; ++s) {
        // Same per-server stream and draw order as make_fault_plan, so a
        // lazy run crashes the same servers at the same times as a
        // materialized plan with a large enough horizon would.
        auto rng = std::make_shared<sim::Rng>(par::shard_seed(effective, s));
        const double first = rng->exponential(1.0 / cfg_.faults.mtbf);
        arm_lazy(std::uint32_t(s), std::move(rng), first, true);
    }
}

void FaultInjector::arm_lazy(std::uint32_t server, std::shared_ptr<sim::Rng> rng,
                             double at, bool fail) {
    engine_.schedule_daemon_at(at, [this, server, rng = std::move(rng), at, fail] {
        if (lazy_stopped_) return;
        apply(FaultEvent{at, server, fail});
        const double mean = fail ? cfg_.faults.mttr : cfg_.faults.mtbf;
        const double next = at + rng->exponential(1.0 / mean);
        arm_lazy(server, rng, next, !fail);
    });
}

void FaultInjector::record(trace::FailureRecord::Kind kind, std::uint32_t server,
                           std::uint64_t request_id, double duration) {
    trace::FailureRecord rec;
    rec.time = engine_.now();
    rec.request_id = request_id;
    rec.server = server;
    rec.kind = kind;
    rec.duration = duration;
    sink_.append(rec);
}

void FaultInjector::apply(const FaultEvent& ev) {
    ChunkServer* server = servers_.at(ev.server).get();
    if (server->failed() == ev.fail) return;  // plan drift (e.g. manual toggles)
    server->set_failed(ev.fail);
    if (ev.fail) {
        ++crashes_;
        metrics().crashes.add();
        record(trace::FailureRecord::Kind::kCrash, ev.server, 0, 0.0);
        // Heartbeat loss: the master notices after detection_delay, then
        // starts re-replicating the chunks that lost a replica.
        engine_.schedule_after(cfg_.faults.detection_delay, [this, s = ev.server] {
            if (servers_.at(s)->failed()) master_.mark_server_down(s);
            detect_and_repair();
        });
    } else {
        ++recoveries_;
        metrics().recoveries.add();
        record(trace::FailureRecord::Kind::kRecover, ev.server, 0, 0.0);
        engine_.schedule_after(cfg_.faults.detection_delay, [this, s = ev.server] {
            if (!servers_.at(s)->failed()) master_.mark_server_up(s);
        });
    }
}

void FaultInjector::detect_and_repair() {
    for (const auto& task : master_.plan_repairs()) run_repair(task);
}

void FaultInjector::run_repair(const RepairTask& task) {
    ChunkServer* source = servers_.at(task.source).get();
    if (source->failed() || servers_.at(task.dest)->failed()) {
        master_.abort_repair(task.handle);
        return;
    }
    const std::uint32_t slot = repairs_in_flight_.acquire();
    repairs_in_flight_[slot] =
        Repair{task, next_repair_id_++, chunk_base_lbn(cfg_, task.handle), engine_.now()};
    const Repair& r = repairs_in_flight_[slot];
    // Copy path: read the chunk off the source's disk, push it through the
    // destination's ingress port, write it to the destination's disk. Each
    // stage emits its usual device record, so repair traffic is part of
    // the captured workload.
    source->disk().io(r.id, r.lbn, task.bytes, trace::IoType::kRead, [this, slot] {
        const Repair& r = repairs_in_flight_[slot];
        servers_.at(r.task.dest)->ingress().transfer(r.id, r.task.bytes, [this, slot] {
            const Repair& r = repairs_in_flight_[slot];
            servers_.at(r.task.dest)->disk().io(
                r.id, r.lbn, r.task.bytes, trace::IoType::kWrite, [this, slot] {
                    const Repair r = repairs_in_flight_[slot];
                    repairs_in_flight_.release(slot);
                    if (servers_.at(r.task.dest)->failed()) {
                        master_.abort_repair(r.task.handle);
                        return;
                    }
                    master_.commit_repair(r.task.handle, r.task.dead, r.task.dest);
                    ++repairs_;
                    metrics().repairs.add();
                    metrics().repair_bytes.add(r.task.bytes);
                    record(trace::FailureRecord::Kind::kRepair, r.task.dest, r.id,
                           engine_.now() - r.started);
                });
        });
    });
}

}  // namespace kooza::gfs
