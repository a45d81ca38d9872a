#include "core/replayer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

#include "gfs/phase.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "sim/engine.hpp"
#include "trace/sink.hpp"

namespace kooza::core {

namespace {

struct ReplayerMetrics {
    obs::Counter& replayed = obs::counter("core.replayer.requests_total");
    obs::Counter& unknown = obs::counter("core.replayer.unknown_phases_total");
    // Simulated-time request latency: integer ns, deterministic at any
    // thread count (shard engines clock their own requests).
    obs::Histogram& latency_ns =
        obs::histogram("core.replayer.request_latency_ns", obs::Unit::kNanoseconds);
};

ReplayerMetrics& metrics() {
    static ReplayerMetrics m;
    return m;
}

using gfs::Phase;

/// One replay server: the chunkserver's device stack without GFS logic.
struct ServerStack {
    hw::Disk disk;
    hw::Cpu cpu;
    hw::Memory memory;
    hw::SwitchPort ingress;

    ServerStack(sim::Engine& eng, const ReplayConfig& cfg, trace::Sink* sink)
        : disk(eng, cfg.disk, sink),
          cpu(eng, cfg.cpu, sink),
          memory(eng, cfg.memory, sink),
          ingress(eng, cfg.net, trace::NetworkRecord::Direction::kRx, sink) {}
};

/// Rejects an arrival time no engine could schedule. Runs before any
/// sort: a NaN would break the (time, index) order's comparator.
void check_arrivals(const SyntheticWorkload& workload, const char* who) {
    for (const auto& r : workload.requests)
        if (!std::isfinite(r.time) || r.time < 0.0)
            throw std::invalid_argument(std::string(who) + ": arrival time " +
                                        std::to_string(r.time) +
                                        " is negative or not finite");
}

/// One replay: the engine, the device stacks, the client port and one
/// record per request, recording into `sink`. Device callbacks capture
/// `this` and a record index, so a Run stays where it was built until
/// finish() drains it.
class Run {
public:
    Run(const ReplayConfig& cfg, ReplayMode mode, std::uint64_t first_id,
        std::size_t n_requests, trace::Sink& sink)
        : cfg_(cfg),
          mode_(mode),
          first_id_(first_id),
          sink_(sink),
          client_port_(engine_, cfg.net, trace::NetworkRecord::Direction::kTx, &sink) {
        for (std::size_t s = 0; s < cfg.n_servers; ++s)
            servers_.emplace_back(engine_, cfg, &sink);
        records_.reserve(n_requests);
    }
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    /// Record `r`, which must outlive the run.
    void add(const SyntheticRequest& r) {
        const std::size_t i = records_.size();
        Record& rec = records_.emplace_back();
        rec.req = &r;
        rec.id = first_id_ + i;
        rec.arrival = r.time;
        rec.server = r.server % servers_.size();
        for (const Phase p : r.phases.ids()) ++rec.count[std::size_t(p)];
    }

    /// Replay every added request and hand over the run's statistics;
    /// its records went to the sink. The requests are ordered once by
    /// (arrival, id), the order an up-front schedule would dispatch them
    /// in (ids follow add() order), and the first arrival starts the pump.
    ReplayResult finish() {
        std::sort(records_.begin(), records_.end(), [](const Record& a, const Record& b) {
            if (a.arrival != b.arrival) return a.arrival < b.arrival;
            return a.id < b.id;
        });
        if (!records_.empty())
            engine_.schedule_at(records_[0].arrival, [this] { arrive(0); });
        engine_.run();
        ReplayResult out;
        out.latencies = std::move(latencies_);
        out.network_drops = client_port_.drops();
        out.network_timeouts = client_port_.timeouts();
        for (const auto& s : servers_) {
            out.network_drops += s.ingress.drops();
            out.network_timeouts += s.ingress.timeouts();
            out.mean_cpu_utilization += s.cpu.utilization();
            out.mean_disk_utilization += s.disk.utilization();
        }
        out.mean_cpu_utilization /= double(servers_.size());
        out.mean_disk_utilization /= double(servers_.size());
        out.duration = engine_.now();
        out.unknown_phases = unknown_phases_;
        return out;
    }

private:
    struct Record {
        const SyntheticRequest* req = nullptr;
        std::uint64_t id = 0;
        double arrival = 0.0;
        std::size_t server = 0;
        /// Structured: index of the next phase to run. Independent: the
        /// subsystem parts still outstanding.
        std::size_t next = 0;
        /// Occurrences of each Phase in the request's sequence.
        std::array<std::uint32_t, std::size_t(Phase::kUnknown) + 1> count{};

        [[nodiscard]] std::uint32_t of(Phase p) const { return count[std::size_t(p)]; }
        /// One payload transfer's share of the network bytes: the
        /// payload-direction net phases and the replica forwards split it.
        [[nodiscard]] std::uint64_t network_share() const {
            const Phase payload =
                req->type == trace::IoType::kWrite ? Phase::kNetRx : Phase::kNetTx;
            return req->network_bytes / (of(payload) + of(Phase::kReplForward));
        }
        /// One disk write's share of the storage bytes: local disk.io
        /// phases and replica writes split it.
        [[nodiscard]] std::uint64_t storage_share() const {
            return req->storage_bytes / (of(Phase::kDiskIo) + of(Phase::kReplForward));
        }
    };

    [[nodiscard]] std::uint32_t bank_of(const SyntheticRequest& r) const {
        return r.bank % cfg_.memory.banks;
    }
    [[nodiscard]] std::uint64_t lbn_of(const SyntheticRequest& r) const {
        return std::min<std::uint64_t>(r.lbn, cfg_.disk.lbn_count - 1);
    }
    ServerStack& replica_of(const Record& rec) {
        return servers_[(rec.server + 1) % servers_.size()];
    }

    void arrive(std::size_t i) {
        // The pump: schedule the next arrival before this request steps,
        // so pending events stay O(in-flight), as in capture.
        if (i + 1 < records_.size())
            engine_.schedule_at(records_[i + 1].arrival, [this, i] { arrive(i + 1); });
        const Record& rec = records_[i];
        // A request with no phase list cannot be replayed in order —
        // fall back to concurrent stressing.
        if (mode_ == ReplayMode::kStructured && !rec.req->phases.empty())
            step(i);
        else
            stress(i);
    }

    /// Structured replay: run the request's next phase, or complete it.
    void step(std::size_t i) {
        Record& rec = records_[i];
        const SyntheticRequest& r = *rec.req;
        if (rec.next == r.phases.size()) return complete(i);
        const Phase phase = r.phases.ids()[rec.next++];
        ServerStack& st = servers_[rec.server];
        const auto then = [this, i] { step(i); };
        switch (phase) {
        case Phase::kNetRx: {
            const bool payload = r.type == trace::IoType::kWrite;
            st.ingress.transfer(rec.id,
                                payload ? rec.network_share() : cfg_.control_bytes, then,
                                payload);
            break;
        }
        case Phase::kNetTx: {
            const bool payload = r.type == trace::IoType::kRead;
            client_port_.transfer(rec.id,
                                  payload ? rec.network_share() : cfg_.control_bytes,
                                  then, payload);
            break;
        }
        case Phase::kCpuVerify:
        case Phase::kCpuAggregate: {
            const double fraction = phase == Phase::kCpuVerify
                                        ? cfg_.cpu_verify_fraction
                                        : 1.0 - cfg_.cpu_verify_fraction;
            st.cpu.execute(rec.id, fraction * r.cpu_busy_seconds / double(rec.of(phase)),
                           then);
            break;
        }
        case Phase::kMemBuffer:
            st.memory.access(rec.id, bank_of(r), r.memory_bytes / rec.of(phase),
                             r.memory_type, then);
            break;
        case Phase::kDiskIo:
            st.disk.io(rec.id, lbn_of(r), rec.storage_share(), r.storage_type, then);
            break;
        case Phase::kReplForward:
            // One replica hop: a share of the payload to the next server,
            // which writes a share of the storage bytes.
            replica_of(rec).ingress.transfer(
                rec.id, rec.network_share(),
                [this, i, then] {
                    const Record& rec = records_[i];
                    replica_of(rec).disk.io(rec.id, lbn_of(*rec.req), rec.storage_share(),
                                            rec.req->storage_type, then);
                },
                true);
            break;
        case Phase::kMasterLookup:
            // Control round trip on the client port.
            client_port_.transfer(
                rec.id, cfg_.control_bytes,
                [this, i, then] {
                    client_port_.transfer(records_[i].id, cfg_.control_bytes, then, false);
                },
                false);
            break;
        case Phase::kUnknown:
            ++unknown_phases_;
            metrics().unknown.add();
            engine_.schedule_after(0.0, then);
            break;
        }
    }

    /// Independent replay: all subsystems stressed concurrently (the
    /// structure-free in-breadth stressing).
    void stress(std::size_t i) {
        Record& rec = records_[i];
        const SyntheticRequest& r = *rec.req;
        ServerStack& st = servers_[rec.server];
        rec.next = 4;
        const auto part_done = [this, i] {
            if (--records_[i].next == 0) complete(i);
        };
        // Network: payload in the payload-bearing direction.
        auto& port = r.type == trace::IoType::kWrite ? st.ingress : client_port_;
        port.transfer(rec.id, r.network_bytes, part_done, true);
        // CPU: the whole busy budget as one burst.
        st.cpu.execute(rec.id, r.cpu_busy_seconds, part_done);
        st.memory.access(rec.id, bank_of(r), r.memory_bytes, r.memory_type, part_done);
        st.disk.io(rec.id, lbn_of(r), r.storage_bytes, r.storage_type, part_done);
    }

    void complete(std::size_t i) {
        const Record& rec = records_[i];
        const trace::RequestRecord out{rec.id, rec.req->type, rec.arrival, engine_.now(),
                                       rec.req->network_bytes};
        sink_.append(out);
        latencies_.push_back(out.latency());
        metrics().replayed.add();
        metrics().latency_ns.observe_seconds(out.latency());
    }

    const ReplayConfig& cfg_;
    const ReplayMode mode_;
    const std::uint64_t first_id_;
    trace::Sink& sink_;
    sim::Engine engine_;
    std::deque<ServerStack> servers_;
    hw::SwitchPort client_port_;
    std::vector<Record> records_;
    std::vector<double> latencies_;
    std::size_t unknown_phases_ = 0;
};

}  // namespace

Replayer::Replayer(ReplayConfig cfg) : cfg_(cfg) {
    if (cfg_.n_servers == 0) throw std::invalid_argument("Replayer: n_servers 0");
    if (!(cfg_.cpu_verify_fraction > 0.0 && cfg_.cpu_verify_fraction < 1.0))
        throw std::invalid_argument("Replayer: cpu_verify_fraction outside (0,1)");
}

ReplayResult Replayer::replay(const SyntheticWorkload& workload,
                              ReplayMode mode) const {
    if (workload.empty())
        throw std::invalid_argument("Replayer::replay: empty workload");
    check_arrivals(workload, "Replayer::replay");
    trace::MemoryCapture capture(1);
    Run run(cfg_, mode, 0, workload.requests.size(), capture.group(0));
    for (const auto& r : workload.requests) run.add(r);
    ReplayResult out = run.finish();
    out.traces = capture.take();
    return out;
}

ReplayResult Replayer::replay_sharded(const SyntheticWorkload& workload,
                                      ReplayMode mode) const {
    if (workload.empty())
        throw std::invalid_argument("Replayer::replay_sharded: empty workload");
    check_arrivals(workload, "Replayer::replay_sharded");
    const std::size_t shards = cfg_.n_servers;
    if (shards <= 1) return replay(workload, mode);

    // Partition by server tag, preserving arrival order within a shard.
    std::vector<std::vector<const SyntheticRequest*>> parts(shards);
    for (const auto& r : workload.requests) parts[r.server % shards].push_back(&r);
    // Each shard's request ids start after the previous shard's range, so
    // merged traces keep globally-unique ids no matter the schedule.
    std::vector<std::uint64_t> first_id(shards, 0);
    for (std::size_t s = 1; s < shards; ++s)
        first_id[s] = first_id[s - 1] + parts[s - 1].size();

    ReplayConfig shard_cfg = cfg_;
    shard_cfg.n_servers = 1;
    // Each pool thread writes only its own shard's group.
    trace::MemoryCapture capture(shards);
    std::vector<std::optional<ReplayResult>> results(shards);
    par::pool().parallel_for(shards, [&](std::size_t s) {
        if (parts[s].empty()) return;  // idle server: nothing to run
        Run run(shard_cfg, mode, first_id[s], parts[s].size(), capture.group(s));
        for (const auto* r : parts[s]) run.add(*r);
        results[s] = run.finish();
    });

    // Merge by shard index (idle shards count as 0-utilization servers).
    ReplayResult out;
    for (std::size_t s = 0; s < shards; ++s) {
        if (!results[s]) continue;
        ReplayResult& r = *results[s];
        out.latencies.insert(out.latencies.end(), r.latencies.begin(),
                             r.latencies.end());
        out.network_drops += r.network_drops;
        out.network_timeouts += r.network_timeouts;
        out.unknown_phases += r.unknown_phases;
        out.mean_cpu_utilization += r.mean_cpu_utilization;
        out.mean_disk_utilization += r.mean_disk_utilization;
        out.duration = std::max(out.duration, r.duration);
    }
    out.mean_cpu_utilization /= double(shards);
    out.mean_disk_utilization /= double(shards);
    out.traces = capture.take();
    return out;
}

}  // namespace kooza::core
