// Deterministic chunkserver fault injection.
//
// A FaultPlan is a time-ordered list of crash/recover events, either built
// from FaultConfig's MTBF/MTTR distributions (make_fault_plan) or supplied
// explicitly by tests. The plan is a pure function of (seed, server): each
// server draws its up/down intervals from a stream keyed with
// par::shard_seed, so the same seed yields a byte-identical plan — and
// hence identical traces — at any thread count (DESIGN.md section 6).
//
// The FaultInjector applies a plan to a live cluster: it flips chunkserver
// failure state at the scheduled times, tells the master after the
// heartbeat detection delay, and executes the master's re-replication
// plans as real device work (source disk read -> dest ingress transfer ->
// dest disk write), so repair traffic shows up in the captured traces as
// background load the way production re-replication does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gfs/chunkserver.hpp"
#include "gfs/config.hpp"
#include "gfs/master.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/slots.hpp"
#include "trace/sink.hpp"

namespace kooza::gfs {

/// One scheduled chunkserver state change.
struct FaultEvent {
    double time = 0.0;
    std::uint32_t server = 0;
    bool fail = true;  ///< true = crash, false = recover
};

using FaultPlan = std::vector<FaultEvent>;

/// Build the crash/recover schedule for `n_servers` servers from the
/// config's MTBF/MTTR exponentials. `cluster_seed` is mixed in when
/// cfg.seed is 0. Events are sorted by (time, server).
[[nodiscard]] FaultPlan make_fault_plan(const FaultConfig& cfg, std::size_t n_servers,
                                        std::uint64_t cluster_seed);

/// Repair requests carry ids from this base so they can never collide
/// with client request ids (which count up from 0); the requests stream
/// never lists them, so models treat repair device records as background
/// traffic.
inline constexpr std::uint64_t kRepairRequestIdBase = 1ull << 62;

/// Applies a FaultPlan to a cluster's servers and master.
class FaultInjector {
public:
    FaultInjector(sim::Engine& engine, const GfsConfig& cfg, Master& master,
                  std::vector<std::unique_ptr<ChunkServer>>& servers,
                  trace::Sink& sink);

    /// Schedule every event of the plan on the engine. Call before run();
    /// may be called once per injector.
    void schedule(FaultPlan plan);

    /// Lazy (drain-following) scheduling for FaultConfig::horizon == 0:
    /// instead of materializing a plan up front, each server carries a
    /// daemon event chain that draws the same per-server up/down
    /// exponentials as make_fault_plan on the fly, for as long as the
    /// simulation has live work. Slow-draining requests keep seeing
    /// crashes past the last arrival, and memory stays O(servers)
    /// regardless of how long the run drags on.
    void schedule_lazy(std::size_t n_servers, std::uint64_t cluster_seed);

    /// End the lazy chains: a pending link neither applies its state flip
    /// nor re-arms. Detection and repairs already under way still run.
    /// Cluster calls this once its input has ended and every submitted
    /// request has completed or failed, so repair work cannot keep
    /// spawning crashes that spawn more repair work.
    void stop_lazy() noexcept { lazy_stopped_ = true; }

    [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
    [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
    [[nodiscard]] std::uint64_t recoveries() const noexcept { return recoveries_; }
    /// Re-replications that committed (copies that landed on a live dest).
    [[nodiscard]] std::uint64_t repairs() const noexcept { return repairs_; }

private:
    void apply(const FaultEvent& ev);
    /// One link of a lazy per-server daemon chain: apply the state flip,
    /// draw the next interval, re-arm.
    void arm_lazy(std::uint32_t server, std::shared_ptr<sim::Rng> rng, double at,
                  bool fail);
    /// Ask the master for repair work and execute it.
    void detect_and_repair();
    void run_repair(const RepairTask& task);
    void record(trace::FailureRecord::Kind kind, std::uint32_t server,
                std::uint64_t request_id, double duration);

    /// One re-replication in flight, from its source read to its commit.
    struct Repair {
        RepairTask task;
        std::uint64_t id = 0;   ///< request id its device records carry
        std::uint64_t lbn = 0;  ///< the chunk's base block, on both disks
        double started = 0.0;
    };

    sim::Engine& engine_;
    const GfsConfig& cfg_;
    Master& master_;
    std::vector<std::unique_ptr<ChunkServer>>& servers_;
    trace::Sink& sink_;
    sim::Slots<Repair> repairs_in_flight_;
    FaultPlan plan_;
    bool lazy_ = false;
    bool lazy_stopped_ = false;
    std::uint64_t next_repair_id_ = kRepairRequestIdBase;
    std::uint64_t crashes_ = 0;
    std::uint64_t recoveries_ = 0;
    std::uint64_t repairs_ = 0;
};

}  // namespace kooza::gfs
