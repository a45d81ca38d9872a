#include "gfs/cluster.hpp"

#include <set>
#include <stdexcept>

namespace kooza::gfs {

Cluster::Cluster(GfsConfig cfg, std::size_t n_clients, trace::SinkProvider* provider)
    : cfg_(cfg), provider_(provider) {
    if (cfg_.n_chunkservers == 0)
        throw std::invalid_argument("Cluster: need >= 1 chunkserver");
    if (n_clients == 0) throw std::invalid_argument("Cluster: need >= 1 client");
    if (provider_ != nullptr &&
        provider_->group_count() != 1 + cfg_.n_chunkservers)
        throw std::invalid_argument(
            "Cluster: provider needs group_count() == 1 + n_chunkservers");
    engine_ = std::make_unique<sim::Engine>();
    tracer_ = std::make_unique<trace::SpanTracer>(cfg_.span_sample_every);
    if (provider_ == nullptr) {
        sink_ = std::make_unique<trace::TraceSet>();
        memory_sinks_.push_back(std::make_unique<trace::MemorySink>(*sink_));
        cluster_sink_ = memory_sinks_.back().get();
    } else {
        cluster_sink_ = &provider_->group(0);
        // Spans stream through the provider instead of piling up in the
        // tracer's done_ buffer.
        tracer_->set_sink(cluster_sink_);
    }
    master_ = std::make_unique<Master>(cfg_.n_chunkservers, cfg_.replication,
                                       cfg_.chunk_size);
    master_node_ = std::make_unique<MasterNode>(*engine_, cfg_);
    for (std::size_t s = 0; s < cfg_.n_chunkservers; ++s) {
        trace::Sink* server_sink = nullptr;
        if (provider_ == nullptr) {
            server_sinks_.push_back(std::make_unique<trace::TraceSet>());
            memory_sinks_.push_back(
                std::make_unique<trace::MemorySink>(*server_sinks_.back()));
            server_sink = memory_sinks_.back().get();
        } else {
            server_sink = &provider_->group(1 + s);
        }
        servers_.push_back(std::make_unique<ChunkServer>(
            std::uint32_t(s), *engine_, cfg_, server_sink, tracer_.get()));
    }
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
                                                    cluster_sink_, tracer_.get()));
    if (cfg_.faults.enabled) {
        injector_ = std::make_unique<FaultInjector>(*engine_, cfg_, *master_, servers_,
                                                    cluster_sink_);
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
                                                cluster_sink_);
    injector_->schedule(std::move(plan));
    return *injector_;
}

std::uint64_t Cluster::failovers() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->failovers();
    return n;
}

void Cluster::create_file(const std::string& name, std::uint64_t size) {
    master_->create_file(name, size);
}

std::uint64_t Cluster::submit(const RequestSpec& spec) {
    return submit(spec, {});
}

std::uint64_t Cluster::submit(const RequestSpec& spec,
                              std::function<void(double)> on_complete) {
    if (spec.client >= clients_.size())
        throw std::invalid_argument("Cluster::submit: unknown client");
    const std::uint64_t id = next_request_++;
    const std::uint32_t slot = submissions_.acquire();
    Submission& sub = submissions_[slot];
    sub.id = id;
    sub.spec = spec;
    sub.on_complete = std::move(on_complete);
    try {
        engine_->schedule_at(spec.time, [this, slot] { start(slot); });
    } catch (...) {
        // A time the engine refuses leaves no record behind.
        submissions_[slot].on_complete = nullptr;
        submissions_.release(slot);
        throw;
    }
    return id;
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
        const double latency = client.last_latency();
        if (latency >= 0.0) {
            if (cfg_.collect_latencies) latencies_.push_back(latency);
            ++completed_;
        }
        stop_faults_if_settled();
        // Cluster accounting settles before the callback so a
        // closed-loop refill observes a consistent cluster.
        const auto on_complete = std::move(submissions_[slot].on_complete);
        submissions_.release(slot);
        if (on_complete) on_complete(latency);
    });
}

void Cluster::submit_all(const std::vector<RequestSpec>& specs) {
    for (const auto& s : specs) submit(s);
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

trace::TraceSet Cluster::traces() const {
    if (provider_ != nullptr)
        throw std::logic_error(
            "Cluster::traces: unavailable with a SinkProvider (the provider "
            "received the records as they were emitted)");
    trace::TraceSet out = *sink_;
    for (const auto& s : server_sinks_) out.merge(*s);
    out.spans = tracer_->spans();
    out.sort_by_time();
    return out;
}

trace::TraceSet Cluster::take_traces() {
    if (provider_ != nullptr)
        throw std::logic_error(
            "Cluster::take_traces: unavailable with a SinkProvider");
    trace::TraceSet out = std::move(*sink_);
    *sink_ = trace::TraceSet{};
    for (auto& s : server_sinks_) {
        out.merge(*s);
        *s = trace::TraceSet{};  // release the merged copy's source
    }
    out.spans = tracer_->take_spans();
    out.sort_by_time();
    return out;
}

trace::TraceSet Cluster::traces_for_server(std::size_t i) const {
    if (provider_ != nullptr)
        throw std::logic_error(
            "Cluster::traces_for_server: unavailable with a SinkProvider");
    if (i >= server_sinks_.size())
        throw std::out_of_range("Cluster::traces_for_server");
    trace::TraceSet out = *server_sinks_[i];
    // Request ids this server touched.
    std::set<std::uint64_t> ids;
    for (const auto& r : out.storage) ids.insert(r.request_id);
    for (const auto& r : out.cpu) ids.insert(r.request_id);
    for (const auto& r : out.memory) ids.insert(r.request_id);
    for (const auto& r : out.network) ids.insert(r.request_id);
    // Attach the matching end-to-end records, client-side network records
    // and spans from the shared sink.
    for (const auto& r : sink_->requests)
        if (ids.count(r.request_id) != 0) out.requests.push_back(r);
    for (const auto& r : sink_->network)
        if (ids.count(r.request_id) != 0) out.network.push_back(r);
    for (const auto& s : tracer_->spans())
        if (ids.count(s.trace_id) != 0) out.spans.push_back(s);
    out.sort_by_time();
    return out;
}

}  // namespace kooza::gfs
