// Workload generators beyond the synthetic profiles, after CODES'
// workload API (codes_workload_get_next(): many generators, one
// simulator). Each is a workloads::ScheduleStream (profiles.hpp), so it
// inherits the nondecreasing-time enforcement StreamingSink's hold
// protocol depends on:
//
//   MixGenerator         arrival-process-driven read/write mix
//   CheckpointGenerator  Daly-style HPC checkpoint/restart traffic
//   TraceReplayGenerator re-issue a captured kooza.trace/1 requests log
//   MergeGenerator       time-merge of sub-streams (tiered scenarios)
//   core::ModelReplayGenerator  trained-KOOZA-model replay (core lib)
//
// Profiles are streams through Profile::open_stream. The scenario
// library (scenarios.hpp) composes these into named configs.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "queueing/arrival.hpp"
#include "sim/rng.hpp"
#include "workloads/profiles.hpp"

namespace kooza::workloads {

/// Generic arrival-process-driven request mix: the building block the
/// scenario library modulates with time-varying envelopes. Fixed-size
/// reads/writes against a set of files with optional Zipf popularity.
class MixGenerator final : public ScheduleStream {
public:
    struct Params {
        std::size_t count = 500;
        double read_fraction = 0.7;
        std::uint64_t read_size = 64ull << 10;
        std::uint64_t write_size = 1ull << 20;
        std::size_t files = 8;
        std::uint64_t file_size = 1ull << 30;
        double zipf_s = 0.0;  ///< 0 = uniform file popularity
        std::string file_prefix = "data.";
        bool append_writes = false;  ///< writes use the record-append path
    };

    MixGenerator(Params p, std::unique_ptr<queueing::ArrivalProcess> arrivals,
                 sim::Rng rng);

    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const override {
        return files_;
    }

protected:
    [[nodiscard]] std::optional<gfs::RequestSpec> poll() override;

private:
    Params p_;
    std::unique_ptr<queueing::ArrivalProcess> arrivals_;
    sim::Rng rng_;
    std::vector<std::pair<std::string, std::uint64_t>> files_;
    FilePicker picker_;
    double t_ = 0.0;
    std::size_t i_ = 0;
};

/// Daly-style HPC checkpoint/restart workload (after the CODES checkpoint
/// generator): an application computes for the Daly-optimal interval
/// tau = sqrt(2*delta*MTTI) - delta (delta = checkpoint_bytes/bandwidth),
/// then every rank writes its checkpoint shard in segment-sized
/// sequential writes. Failures arrive with exponential MTTI; a failure
/// rolls the app back — every rank reads its last complete checkpoint
/// shard back in (restart reads) and recomputes. Ops stop after `count`.
class CheckpointGenerator final : public ScheduleStream {
public:
    struct Params {
        std::size_t count = 500;           ///< total ops (writes + reads)
        double mtti = 120.0;               ///< mean time to interrupt, seconds
        std::uint64_t checkpoint_bytes = 256ull << 20;  ///< app-wide snapshot
        double bandwidth = 1e9;            ///< sustained ckpt bytes/second
        std::size_t ranks = 4;             ///< files written per checkpoint
        std::uint64_t segment = 16ull << 20;  ///< bytes per write/read op
    };

    CheckpointGenerator(Params p, sim::Rng rng);

    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const override {
        return files_;
    }
    /// The Daly-optimal compute interval this instance derived.
    [[nodiscard]] double optimal_interval() const noexcept { return tau_; }

protected:
    [[nodiscard]] std::optional<gfs::RequestSpec> poll() override;

private:
    void refill();

    Params p_;
    sim::Rng rng_;
    std::vector<std::pair<std::string, std::uint64_t>> files_;
    std::deque<gfs::RequestSpec> buffer_;
    std::uint64_t shard_ = 0;     ///< checkpoint bytes per rank
    double tau_ = 0.0;            ///< Daly-optimal compute interval
    double delta_ = 0.0;          ///< checkpoint write time
    double t_ = 0.0;              ///< application clock
    double next_failure_ = 0.0;
    bool have_checkpoint_ = false;
    std::size_t emitted_ = 0;
};

/// Trace-log replay: re-issue the end-to-end requests stream of a
/// captured trace directory (CSV or kooza.trace/1 binary, auto-detected)
/// against a fresh cluster. Arrival times, types and sizes replay
/// verbatim (sorted by arrival); file placement is re-laid-out
/// deterministically over one replay file, since request records do not
/// retain offsets. A non-finite arrival, or a request above
/// kMaxRequestBytes, is rejected at load (std::runtime_error naming the
/// directory and the request id).
class TraceReplayGenerator final : public ScheduleStream {
public:
    /// Largest request a replayed trace may hold (1 TiB): a row's bytes
    /// size the replay file, and so the master's chunk table.
    static constexpr std::uint64_t kMaxRequestBytes = std::uint64_t(1) << 40;

    struct Params {
        std::uint64_t file_size = 1ull << 30;  ///< grows to fit large requests
    };

    explicit TraceReplayGenerator(const std::filesystem::path& trace_dir);
    TraceReplayGenerator(const std::filesystem::path& trace_dir, Params p);

    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const override {
        return files_;
    }
    [[nodiscard]] std::size_t total_ops() const noexcept { return ops_.size(); }

protected:
    [[nodiscard]] std::optional<gfs::RequestSpec> poll() override;

private:
    std::vector<std::pair<std::string, std::uint64_t>> files_;
    std::vector<gfs::RequestSpec> ops_;
    std::size_t ix_ = 0;
};

/// Time-merge of sub-streams into one nondecreasing op stream (ties
/// break by sub-stream index, so the merge is deterministic). files() is
/// the parts' lists concatenated in part order, and a part's file index
/// is offset by the number of files before its list. The sub-streams'
/// file names must not collide.
class MergeGenerator final : public ScheduleStream {
public:
    explicit MergeGenerator(std::vector<std::unique_ptr<ScheduleStream>> parts);

    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const override {
        return files_;
    }

protected:
    [[nodiscard]] std::optional<gfs::RequestSpec> poll() override;

private:
    std::vector<std::unique_ptr<ScheduleStream>> parts_;
    std::vector<std::optional<gfs::RequestSpec>> heads_;
    std::vector<std::pair<std::string, std::uint64_t>> files_;
    std::vector<gfs::FileId> first_file_;  ///< part i's first index in files_
};

}  // namespace kooza::workloads
