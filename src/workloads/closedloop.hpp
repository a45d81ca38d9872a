// Closed-loop client pool: the feedback half of the workload layer.
//
// Open-loop ScheduleStreams emit arrivals on a fixed clock regardless of
// how the cluster is doing; real serving systems are closed loops —
// each client keeps a bounded window of outstanding requests and only
// submits the next one after a completion (plus think time). That
// feedback is fundamentally incompatible with the ScheduleStream NVI
// contract (a completion at t can mint a request earlier than one
// already emitted for t' > t, violating nondecreasing next()), so the
// pool is a standalone source sharing the stream vocabulary — files()
// for cluster setup, gfs::RequestSpec per request — and is driven by
// completion callbacks from gfs::Cluster (see core::run_capture's
// closed-loop driver).
//
// Determinism: every client draws from its own sim::Rng seeded with
// par::shard_seed(seed, client), so the request sequence a client
// produces depends only on (seed, client, how many times it drew) —
// byte-reproducible at any thread count, exactly the PR 1 discipline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gfs/cluster.hpp"
#include "sim/rng.hpp"
#include "workloads/profiles.hpp"

namespace kooza::workloads {

struct ClosedLoopParams {
    std::size_t clients = 8;       ///< client pool size
    std::size_t outstanding = 4;   ///< window: requests in flight per client
    double think_time = 0.01;      ///< mean think seconds (exponential; 0 = none)
    std::size_t total = 500;       ///< global request budget across the pool
    double read_fraction = 0.7;
    std::uint64_t read_size = 64ull << 10;
    std::uint64_t write_size = 1ull << 20;
    std::size_t files = 8;
    std::uint64_t file_size = 1ull << 30;
    double zipf_s = 0.9;           ///< file popularity skew (0 = uniform)
    std::string file_prefix = "closed.";
    std::uint64_t seed = 1234;
};

class ClosedLoopPool {
public:
    explicit ClosedLoopPool(ClosedLoopParams p);

    /// Files the cluster must create before the pool runs (same contract
    /// as ScheduleStream::files(): a request's `file` indexes this list).
    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>& files()
        const noexcept {
        return files_;
    }

    /// Draw `client`'s next request given that its slot freed at `now`
    /// (simulated seconds): submission time is now + a think-time draw.
    /// Returns nullopt once the global budget is spent — the pool, like a
    /// stream, is then permanently exhausted. Throws std::out_of_range
    /// for a client index outside the pool.
    [[nodiscard]] std::optional<gfs::RequestSpec> next(std::uint32_t client,
                                                      double now);

    [[nodiscard]] std::size_t issued() const noexcept { return issued_; }
    [[nodiscard]] bool exhausted() const noexcept { return issued_ >= p_.total; }
    [[nodiscard]] const ClosedLoopParams& params() const noexcept { return p_; }

private:
    ClosedLoopParams p_;
    std::vector<std::pair<std::string, std::uint64_t>> files_;
    FilePicker picker_;
    std::vector<sim::Rng> rngs_;          ///< one deterministic shard per client
    std::size_t issued_ = 0;
};

}  // namespace kooza::workloads
