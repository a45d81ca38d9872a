#include "gfs/client.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace kooza::gfs {

namespace {
struct ClientMetrics {
    obs::Counter& requests = obs::counter("gfs.client.requests_total");
    obs::Counter& failed = obs::counter("gfs.client.requests_failed_total");
    obs::Counter& cache_hits = obs::counter("gfs.client.cache_hits_total");
    obs::Counter& cache_misses = obs::counter("gfs.client.cache_misses_total");
    obs::Counter& failovers = obs::counter("gfs.client.failovers_total");
    obs::Counter& rejected = obs::counter("gfs.client.rejections_total");
    obs::Counter& retry_rounds = obs::counter("gfs.client.retry_rounds_total");
    obs::Histogram& latency_ns =
        obs::histogram("gfs.client.request_latency_ns", obs::Unit::kNanoseconds);
};

ClientMetrics& metrics() {
    static ClientMetrics m;
    return m;
}
}  // namespace

MasterNode::MasterNode(sim::Engine& engine, const GfsConfig& cfg) {
    hw::CpuParams mp = cfg.cpu;
    mp.cores = 1;
    cpu = std::make_unique<hw::Cpu>(engine, mp, nullptr);
    ingress = std::make_unique<hw::SwitchPort>(
        engine, cfg.net, trace::NetworkRecord::Direction::kRx, nullptr);
}

Client::Client(std::uint32_t id, sim::Engine& engine, const GfsConfig& cfg,
               Master& master, MasterNode& master_node,
               std::vector<std::unique_ptr<ChunkServer>>& servers,
               trace::Sink& sink, trace::SpanTracer* tracer)
    : id_(id),
      engine_(engine),
      cfg_(cfg),
      master_(master),
      master_node_(master_node),
      servers_(servers),
      sink_(sink),
      tracer_(tracer) {
    ingress_ = std::make_unique<hw::SwitchPort>(
        engine_, cfg_.net, trace::NetworkRecord::Direction::kTx, &sink_);
}

double Client::backoff_wait(std::uint32_t step) const {
    // A backoff factor <= 1 cannot grow the wait, so short-circuit: the
    // old loop ran all `step` iterations shrinking the wait toward zero,
    // which both wasted O(step) work under large retry-round configs and
    // silently turned "backoff" into "retry faster and faster".
    if (cfg_.failover_backoff <= 1.0 || step == 0)
        return std::min(cfg_.failover_timeout, cfg_.failover_timeout_max);
    double wait = cfg_.failover_timeout;
    for (std::uint32_t i = 0; i < step; ++i) {
        wait *= cfg_.failover_backoff;
        if (wait >= cfg_.failover_timeout_max) break;
    }
    return std::min(wait, cfg_.failover_timeout_max);
}

ChunkLocation* Client::cached(FileId file, std::uint64_t chunk) {
    if (file >= location_cache_.size() || chunk >= location_cache_[file].size())
        return nullptr;
    ChunkLocation& loc = location_cache_[file][chunk];
    return loc.servers.empty() ? nullptr : &loc;
}

void Client::issue(std::uint64_t request_id, FileId file, std::uint64_t offset,
                   std::uint64_t size, trace::IoType type, sim::EventFn on_done) {
    if (size == 0) throw std::invalid_argument("Client::issue: size 0");
    if (offset + size > master_.file_size(file))
        throw std::invalid_argument("Client::issue: beyond end of file " +
                                    master_.name(file));
    const double arrival = engine_.now();
    // The RequestRecord is keyed at arrival but only emitted (or dropped,
    // on failure) at completion: hold the requests stream until then.
    sink_.open_hold(trace::StreamId::kRequests, arrival);
    const std::uint64_t chunk = master_.chunk_size();
    const std::uint32_t r = requests_.acquire();
    Request& req = requests_[r];
    req.id = request_id;
    req.file = file;
    req.type = type;
    req.arrival = arrival;
    req.size = size;
    req.root = begin_span(tracer_, request_id, 0, span_names().request, arrival);
    req.outstanding = (offset + size - 1) / chunk - offset / chunk + 1;
    req.failed = false;
    req.on_done = std::move(on_done);

    // One piece per chunk the request touches.
    for (std::uint64_t cur = offset, end = offset + size; cur < end;) {
        const std::uint32_t s = pieces_.acquire();
        Piece& p = pieces_[s];
        p.request = r;
        p.chunk_index = cur / chunk;
        p.offset_in_chunk = cur % chunk;
        p.size = std::min(end - cur, chunk - p.offset_in_chunk);
        p.attempt = 0;
        p.round = 0;
        p.backoff_step = 0;
        cur += p.size;
        lookup(s);
    }
}

void Client::lookup(std::uint32_t s) {
    Piece& p = pieces_[s];
    const Request& req = requests_[p.request];
    if (const ChunkLocation* loc = cached(req.file, p.chunk_index)) {
        metrics().cache_hits.add();
        p.loc = *loc;
        return try_replica(s);
    }
    metrics().cache_misses.add();
    // Pay the master round trip: control to master, CPU work, control back.
    p.span = begin_span(tracer_, req.id, req.root,
                        span_names().phases[std::size_t(Phase::kMasterLookup)],
                        engine_.now());
    master_node_.ingress->transfer(
        req.id, cfg_.control_bytes,
        [this, s] {
            master_node_.cpu->execute(
                request_of(s).id, master_node_.cpu->params().per_request_overhead,
                [this, s] {
                    ingress_->transfer(request_of(s).id, cfg_.control_bytes,
                                       [this, s] { located(s); }, /*record=*/false);
                });
        },
        /*record=*/false);
}

void Client::located(std::uint32_t s) {
    Piece& p = pieces_[s];
    const Request& req = requests_[p.request];
    finish_span(tracer_, p.span, engine_.now());
    // locate() lists replicas the master believes alive first.
    const std::uint64_t chunk = master_.chunk_size();
    const std::uint64_t offset = p.chunk_index * chunk + p.offset_in_chunk;
    if (location_cache_.size() <= req.file) location_cache_.resize(req.file + 1);
    auto& row = location_cache_[req.file];
    // A slot for every chunk the file has now; record appends add more.
    if (row.size() <= p.chunk_index)
        row.resize(std::max(p.chunk_index + 1,
                            (master_.file_size(req.file) + chunk - 1) / chunk));
    // Overwrite so a refreshed location replaces a stale one.
    row[p.chunk_index] = master_.locate(req.file, offset);
    p.loc = row[p.chunk_index];
    try_replica(s);
}

void Client::try_replica(std::uint32_t s) {
    Piece& p = pieces_[s];
    Request& req = requests_[p.request];
    if (p.loc.servers.empty())
        throw std::logic_error("Client::try_replica: no replicas");
    if (p.attempt >= p.loc.servers.size()) {
        // Every known replica is down. Evict the stale location and, if
        // retry rounds remain, back off and re-ask the master — it may
        // have re-replicated the chunk onto live servers by now.
        if (p.round < cfg_.client_retry_rounds) {
            metrics().retry_rounds.add();
            if (ChunkLocation* loc = cached(req.file, p.chunk_index))
                loc->servers.clear();
            const double wait = backoff_wait(p.backoff_step);
            p.span = begin_span(tracer_, req.id, req.root, span_names().failover,
                                engine_.now());
            p.attempt = 0;
            ++p.round;
            ++p.backoff_step;
            engine_.schedule_after(wait, [this, s] {
                finish_span(tracer_, pieces_[s].span, engine_.now());
                lookup(s);
            });
            return;
        }
        // Out of retry rounds: the piece (and hence the request) fails.
        req.failed = true;
        engine_.schedule_after(0.0, [this, s] { piece_done(s); });
        return;
    }
    ChunkServer* target = servers_.at(p.loc.servers[p.attempt]).get();
    if (target->failed()) {
        // Wait out the (backed-off) RPC timeout, demote the dead replica
        // to the back of the cached location (later requests try live
        // replicas first), then fail over to the next replica.
        const double wait = backoff_wait(p.backoff_step);
        ++failovers_;
        metrics().failovers.add();
        sink_.append(trace::FailureRecord{engine_.now(), req.id, target->id(),
                                          trace::FailureRecord::Kind::kFailover, wait});
        if (ChunkLocation* loc = cached(req.file, p.chunk_index)) {
            auto& servers = loc->servers;
            const auto pos =
                std::find(servers.begin(), servers.end(), p.loc.servers[p.attempt]);
            if (pos != servers.end()) std::rotate(pos, pos + 1, servers.end());
        }
        p.span =
            begin_span(tracer_, req.id, req.root, span_names().failover, engine_.now());
        ++p.attempt;
        ++p.backoff_step;
        engine_.schedule_after(wait, [this, s] {
            finish_span(tracer_, pieces_[s].span, engine_.now());
            try_replica(s);
        });
        return;
    }
    // The chosen server acts as primary; for a write, the remaining
    // healthy replicas form the forwarding chain.
    chain_.clear();
    if (req.type == trace::IoType::kWrite) {
        for (std::size_t r = 0; r < p.loc.servers.size(); ++r) {
            if (r == p.attempt) continue;
            ChunkServer* rep = servers_.at(p.loc.servers[r]).get();
            if (!rep->failed()) chain_.push_back(rep);
        }
    }
    const std::uint64_t lbn =
        chunk_base_lbn(cfg_, p.loc.handle) + p.offset_in_chunk / cfg_.disk.block_size;
    target->handle(req.id, req.type, lbn, p.size, req.root, *ingress_, chain_,
                   [this, s] { piece_done(s); }, [this, s] { reject(s); });
}

void Client::reject(std::uint32_t s) {
    // Admission rejection is the server deliberately shedding load:
    // retrying would defeat the shed, so the piece (and the request)
    // fails immediately and the bounce lands in the failures stream.
    const Piece& p = pieces_[s];
    Request& req = requests_[p.request];
    ++rejections_;
    metrics().rejected.add();
    sink_.append(trace::FailureRecord{engine_.now(), req.id, p.loc.servers[p.attempt],
                                      trace::FailureRecord::Kind::kAdmissionReject, 0.0});
    req.failed = true;
    piece_done(s);
}

void Client::piece_done(std::uint32_t s) {
    const std::uint32_t r = pieces_[s].request;
    pieces_.release(s);
    if (--requests_[r].outstanding == 0) finish(r);
}

void Client::finish(std::uint32_t r) {
    Request& req = requests_[r];
    const double now = engine_.now();
    last_latency_ = req.failed ? -1.0 : now - req.arrival;
    if (req.failed) {
        ++failed_requests_;
        metrics().failed.add();
    } else {
        metrics().requests.add();
        metrics().latency_ns.observe_seconds(last_latency_);
    }
    // A failed request emits a FailureRecord instead of its RequestRecord.
    if (req.failed)
        sink_.append(trace::FailureRecord{now, req.id, 0,
                                          trace::FailureRecord::Kind::kRequestFailed,
                                          now - req.arrival});
    else
        sink_.append(trace::RequestRecord{req.id, req.type, req.arrival, now, req.size});
    sink_.close_hold(trace::StreamId::kRequests, req.arrival);
    finish_span(tracer_, req.root, now);
    sim::EventFn on_done = std::move(req.on_done);
    requests_.release(r);
    if (on_done) on_done();
}

}  // namespace kooza::gfs
