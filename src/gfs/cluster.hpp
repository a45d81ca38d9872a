// Cluster harness: wires engine, master, chunkservers and clients, runs a
// request schedule, and hands back the TraceSet (including spans) that the
// modeling layers train on. This plays the role of the monitored
// production GFS deployment in the paper's experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "gfs/admission.hpp"
#include "gfs/client.hpp"
#include "gfs/config.hpp"
#include "gfs/faults.hpp"
#include "sim/engine.hpp"
#include "sim/eventfn.hpp"
#include "sim/slots.hpp"
#include "trace/records.hpp"
#include "trace/sink.hpp"
#include "trace/traceset.hpp"

namespace kooza::gfs {

/// One scheduled user request. A workload source names the file by its
/// index in the source's own files() list; the driver that created those
/// files submits the request under the FileId create_file returned for
/// that index.
struct RequestSpec {
    double time = 0.0;  ///< absolute issue time (seconds)
    FileId file = 0;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    trace::IoType type = trace::IoType::kRead;
    std::uint32_t client = 0;  ///< issuing client index
    /// GFS record append: the offset is chosen by the master at issue
    /// time (file append cursor, chunk-padded); `offset` is ignored and
    /// `type` is forced to write.
    bool append = false;
};
static_assert(std::is_trivially_copyable_v<RequestSpec>);

class Cluster {
public:
    /// Every record goes to a trace::SinkProvider as it is emitted: group
    /// 0 for cluster-level streams (requests, client-side network,
    /// failures, spans), group 1+s for chunkserver s. Without a caller's
    /// provider the cluster records into a trace::MemoryCapture of its
    /// own, which traces()/take_traces() read back. A caller's provider
    /// (e.g. a trace::StreamingSink) owns the data, so traces() is then
    /// unavailable; it must outlive the cluster and have
    /// group_count() == 1 + n_chunkservers.
    explicit Cluster(GfsConfig cfg, std::size_t n_clients = 1,
                     trace::SinkProvider* provider = nullptr);

    /// Create a file before submitting requests against it; returns the
    /// id requests name it by (Master::create_file: the number of files
    /// created before it).
    FileId create_file(const std::string& name, std::uint64_t size);

    /// Schedule one request (time must not precede the current sim time).
    /// Returns the request id it will run under. `on_complete`, if set,
    /// runs when the request finishes and reads last_latency(); closed-
    /// loop sources use it to refill a client's window. A refused time,
    /// client or file id (one create_file never returned) throws and
    /// keeps nothing of the request: no request id, no callback.
    std::uint64_t submit(const RequestSpec& spec, sim::EventFn on_complete = {});

    /// Tell the cluster no further requests will be submitted. Once every
    /// submitted request has completed or failed, lazy fault chains stop
    /// (FaultInjector::stop_lazy): faults follow the run until the last
    /// client request finishes, not for as long as repairs keep going.
    void end_input();

    /// Run the engine until all scheduled work completes.
    void run();

    /// Latency of the request whose `on_complete` is running: seconds
    /// from issue to completion, or negative when it failed (every
    /// replica down, or bounced by admission control).
    [[nodiscard]] double last_latency() const noexcept { return last_latency_; }

    /// Traces captured so far, in canonical order (MemoryCapture::copy).
    /// The cluster keeps accumulating (call traces() again after more
    /// submits+run). Throws std::logic_error when the caller supplied
    /// the SinkProvider.
    [[nodiscard]] trace::TraceSet traces() const;

    /// Like traces(), but *moves* the records out instead of copying
    /// (MemoryCapture::take), so peak memory does not double the way
    /// `TraceSet copy = traces()` does.
    [[nodiscard]] trace::TraceSet take_traces();

    /// Per-server view: the device records chunkserver `i` emitted, plus
    /// the request/span/client-side records of the requests it served.
    /// This is the training input for one instance of a multi-server
    /// model composition (paper Section 4: "Scaling to multiple servers
    /// ... requires multiple instances of the model").
    [[nodiscard]] trace::TraceSet traces_for_server(std::size_t i) const;

    /// End-to-end latencies in completion order.
    [[nodiscard]] const std::vector<double>& latencies() const noexcept {
        return latencies_;
    }

    [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
    [[nodiscard]] Master& master() noexcept { return *master_; }
    [[nodiscard]] ChunkServer& server(std::size_t i) { return *servers_.at(i); }
    [[nodiscard]] std::size_t n_servers() const noexcept { return servers_.size(); }
    [[nodiscard]] Client& client(std::size_t i) { return *clients_.at(i); }
    [[nodiscard]] const GfsConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] const trace::SpanTracer& tracer() const noexcept { return *tracer_; }
    [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

    /// Requests that exhausted every replica (failure injection).
    [[nodiscard]] std::uint64_t failed_requests() const;

    /// Failover waits clients have paid (dead-replica RPC timeouts).
    [[nodiscard]] std::uint64_t failovers() const;

    /// Request pieces bounced by chunkserver admission control.
    [[nodiscard]] std::uint64_t rejected_requests() const;

    /// Server `i`'s admission controller, or nullptr when
    /// cfg.admission.enabled is false.
    [[nodiscard]] AdmissionController* admission(std::size_t i);

    /// Inject an explicit crash/recover schedule. Call before run(); the
    /// cluster owns the injector. With cfg.faults.enabled the constructor
    /// already scheduled the auto-generated plan, and this throws.
    FaultInjector& inject_faults(FaultPlan plan);

    /// The injector, or nullptr when no faults were configured/injected.
    [[nodiscard]] FaultInjector* fault_injector() noexcept { return injector_.get(); }

private:
    /// end_input()'s rule, checked whenever a request settles.
    void stop_faults_if_settled();

    /// Throws std::logic_error naming `who` unless the cluster records
    /// into its own MemoryCapture.
    void require_capture(const char* who) const;

    /// One submitted request, from submit() until it settles.
    struct Submission {
        std::uint64_t id = 0;
        RequestSpec spec;
        sim::EventFn on_complete;
    };

    /// Issue submission `slot` to its client, at the spec's time.
    void start(std::uint32_t slot);

    GfsConfig cfg_;
    std::unique_ptr<sim::Engine> engine_;
    /// Records without a caller's provider; null when one was supplied.
    std::unique_ptr<trace::MemoryCapture> capture_;
    trace::SinkProvider* provider_;  ///< the caller's or capture_
    std::unique_ptr<trace::SpanTracer> tracer_;
    std::unique_ptr<Master> master_;
    std::unique_ptr<MasterNode> master_node_;
    std::vector<std::unique_ptr<ChunkServer>> servers_;
    std::vector<std::unique_ptr<AdmissionController>> admission_;
    std::vector<std::unique_ptr<Client>> clients_;
    std::unique_ptr<FaultInjector> injector_;
    sim::Slots<Submission> submissions_;
    std::vector<double> latencies_;
    double last_latency_ = 0.0;
    std::uint64_t next_request_ = 0;
    std::uint64_t completed_ = 0;
    bool input_ended_ = false;
};

}  // namespace kooza::gfs
