#include "gfs/cluster.hpp"

#include <set>
#include <stdexcept>
#include <string>

namespace kooza::gfs {

Cluster::Cluster(GfsConfig cfg, std::size_t n_clients, trace::SinkProvider* provider)
    : cfg_(cfg), provider_(provider) {
    if (cfg_.n_chunkservers == 0)
        throw std::invalid_argument("Cluster: need >= 1 chunkserver");
    if (n_clients == 0) throw std::invalid_argument("Cluster: need >= 1 client");
    if (cfg_.disk.block_size == 0)
        throw std::invalid_argument("Cluster: disk.block_size must be > 0");
    // chunk_base_lbn places whole chunks on the disk.
    if (cfg_.disk.lbn_count < blocks_per_chunk(cfg_))
        throw std::invalid_argument(
            "Cluster: disk.lbn_count (" + std::to_string(cfg_.disk.lbn_count) +
            ") is below the " + std::to_string(blocks_per_chunk(cfg_)) +
            " blocks per chunk: the disk cannot hold a chunk");
    if (provider_ == nullptr) {
        capture_ = std::make_unique<trace::MemoryCapture>(1 + cfg_.n_chunkservers);
        provider_ = capture_.get();
    } else if (provider_->group_count() != 1 + cfg_.n_chunkservers) {
        throw std::invalid_argument(
            "Cluster: provider needs group_count() == 1 + n_chunkservers");
    }
    engine_ = std::make_unique<sim::Engine>();
    tracer_ = std::make_unique<trace::SpanTracer>(cfg_.span_sample_every,
                                                  provider_->group(0));
    master_ = std::make_unique<Master>(cfg_.n_chunkservers, cfg_.replication,
                                       cfg_.chunk_size);
    master_node_ = std::make_unique<MasterNode>(*engine_, cfg_);
    for (std::size_t s = 0; s < cfg_.n_chunkservers; ++s)
        servers_.push_back(std::make_unique<ChunkServer>(
            std::uint32_t(s), *engine_, cfg_, provider_->group(1 + s), tracer_.get()));
    if (cfg_.admission.enabled) {
        for (std::size_t s = 0; s < servers_.size(); ++s) {
            admission_.push_back(std::make_unique<AdmissionController>(
                *engine_, std::uint32_t(s), cfg_.admission));
            servers_[s]->set_admission(admission_.back().get());
        }
    }
    for (std::size_t c = 0; c < n_clients; ++c)
        clients_.push_back(std::make_unique<Client>(std::uint32_t(c), *engine_, cfg_,
                                                    *master_, *master_node_, servers_,
                                                    provider_->group(0), tracer_.get()));
    if (cfg_.faults.enabled) {
        injector_ = std::make_unique<FaultInjector>(*engine_, cfg_, *master_, servers_,
                                                    provider_->group(0));
        if (cfg_.faults.horizon > 0.0) {
            injector_->schedule(
                make_fault_plan(cfg_.faults, cfg_.n_chunkservers, cfg_.seed));
        } else {
            // horizon == 0: faults follow the run for as long as it has
            // live work (lazy daemon chains), so draining tails still see
            // crashes.
            injector_->schedule_lazy(cfg_.n_chunkservers, cfg_.seed);
        }
    }
}

FaultInjector& Cluster::inject_faults(FaultPlan plan) {
    if (injector_)
        throw std::logic_error("Cluster::inject_faults: injector already present");
    injector_ = std::make_unique<FaultInjector>(*engine_, cfg_, *master_, servers_,
                                                provider_->group(0));
    injector_->schedule(std::move(plan));
    return *injector_;
}

std::uint64_t Cluster::failovers() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->failovers();
    return n;
}

FileId Cluster::create_file(const std::string& name, std::uint64_t size) {
    return master_->create_file(name, size);
}

std::uint64_t Cluster::submit(const RequestSpec& spec, sim::EventFn on_complete) {
    if (spec.client >= clients_.size())
        throw std::invalid_argument("Cluster::submit: unknown client");
    if (spec.file >= master_->file_count())
        throw std::invalid_argument("Cluster::submit: unknown file id " +
                                    std::to_string(spec.file));
    const std::uint32_t slot = submissions_.acquire();
    Submission& sub = submissions_[slot];
    sub.id = next_request_;
    sub.spec = spec;
    sub.on_complete = std::move(on_complete);
    try {
        engine_->schedule_at(spec.time, [this, slot] { start(slot); });
    } catch (...) {
        // A time the engine refuses leaves no record behind and takes no
        // id, so end_input()'s count still settles.
        submissions_[slot].on_complete = {};
        submissions_.release(slot);
        throw;
    }
    return next_request_++;
}

void Cluster::start(std::uint32_t slot) {
    const Submission& sub = submissions_[slot];
    const RequestSpec& spec = sub.spec;
    // Record appends resolve their offset at issue time, serializing on
    // the master's append cursor.
    const std::uint64_t offset =
        spec.append ? master_->allocate_append(spec.file, spec.size) : spec.offset;
    const auto type = spec.append ? trace::IoType::kWrite : spec.type;
    Client& client = *clients_[spec.client];
    client.issue(sub.id, spec.file, offset, spec.size, type, [this, &client, slot] {
        last_latency_ = client.last_latency();
        if (last_latency_ >= 0.0) {
            if (cfg_.collect_latencies) latencies_.push_back(last_latency_);
            ++completed_;
        }
        stop_faults_if_settled();
        // Cluster accounting settles before the callback so a
        // closed-loop refill observes a consistent cluster.
        sim::EventFn on_complete = std::move(submissions_[slot].on_complete);
        submissions_.release(slot);
        if (on_complete) on_complete();
    });
}

void Cluster::end_input() {
    input_ended_ = true;
    stop_faults_if_settled();
}

void Cluster::stop_faults_if_settled() {
    if (input_ended_ && injector_ && completed_ + failed_requests() == next_request_)
        injector_->stop_lazy();
}

void Cluster::run() { engine_->run(); }

std::uint64_t Cluster::failed_requests() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->failed_requests();
    return n;
}

std::uint64_t Cluster::rejected_requests() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->rejections();
    return n;
}

AdmissionController* Cluster::admission(std::size_t i) {
    if (admission_.empty()) return nullptr;
    return admission_.at(i).get();
}

void Cluster::require_capture(const char* who) const {
    if (capture_ == nullptr)
        throw std::logic_error(std::string(who) +
                               ": unavailable with a caller's SinkProvider (the "
                               "provider received the records as they were emitted)");
}

trace::TraceSet Cluster::traces() const {
    require_capture("Cluster::traces");
    return capture_->copy();
}

trace::TraceSet Cluster::take_traces() {
    require_capture("Cluster::take_traces");
    return capture_->take();
}

trace::TraceSet Cluster::traces_for_server(std::size_t i) const {
    require_capture("Cluster::traces_for_server");
    if (i >= servers_.size()) throw std::out_of_range("Cluster::traces_for_server");
    trace::TraceSet out = capture_->records(1 + i);
    // Request ids this server touched.
    std::set<std::uint64_t> ids;
    for (const auto& r : out.storage) ids.insert(r.request_id);
    for (const auto& r : out.cpu) ids.insert(r.request_id);
    for (const auto& r : out.memory) ids.insert(r.request_id);
    for (const auto& r : out.network) ids.insert(r.request_id);
    // Attach the matching end-to-end records, client-side network records
    // and spans from the cluster-level group.
    const trace::TraceSet& cluster = capture_->records(0);
    for (const auto& r : cluster.requests)
        if (ids.count(r.request_id) != 0) out.requests.push_back(r);
    for (const auto& r : cluster.network)
        if (ids.count(r.request_id) != 0) out.network.push_back(r);
    for (const auto& s : cluster.spans)
        if (ids.count(s.trace_id) != 0) out.spans.push_back(s);
    out.sort_by_time();
    return out;
}

}  // namespace kooza::gfs
