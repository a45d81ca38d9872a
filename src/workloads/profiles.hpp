// Workload profiles: generators of timed GFS request streams.
//
// These play the role of the application traffic the paper's models are
// trained on. MicroProfile reproduces the paper's validation requests
// (fixed-size reads/writes); the OLTP, web-search and streaming profiles
// are the workload archetypes the survey repeatedly cites (Sengupta's
// OLTP request streams, Barroso's Search, Tang's MediSyn streaming-media
// sessions).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gfs/cluster.hpp"
#include "sim/rng.hpp"
#include "trace/records.hpp"

namespace kooza::workloads {

/// A generated workload: files to create plus a timed request schedule.
/// A request's `file` is an index into `files`.
struct Workload {
    std::vector<std::pair<std::string, std::uint64_t>> files;  ///< name, bytes
    std::vector<gfs::RequestSpec> requests;

    /// Create the files, submit every request under the id its file got
    /// and end the cluster's input (Cluster::end_input). Throws
    /// std::out_of_range for a request whose file is not in `files`.
    void install(gfs::Cluster& cluster) const;
};

/// Create `files` on `cluster` in list order; element i of the result is
/// the FileId the cluster gave files[i]. A driver submits a source's
/// request under result[request.file].
[[nodiscard]] std::vector<gfs::FileId> create_files(
    gfs::Cluster& cluster,
    const std::vector<std::pair<std::string, std::uint64_t>>& files);

/// Align an offset down to 4 KB (block-friendly I/O).
[[nodiscard]] constexpr std::uint64_t align4k(std::uint64_t offset) noexcept {
    return offset & ~std::uint64_t(4095);
}

/// Clamp an offset so [offset, offset+size) stays inside the file.
[[nodiscard]] constexpr std::uint64_t clamp_offset(std::uint64_t offset,
                                                   std::uint64_t size,
                                                   std::uint64_t file_size) noexcept {
    return size >= file_size ? 0 : std::min(offset, file_size - size);
}

/// A uniformly drawn, 4 KB-aligned offset for a `size`-byte access that
/// stays inside the file (one rng.uniform draw).
[[nodiscard]] inline std::uint64_t random_offset(sim::Rng& rng, std::uint64_t size,
                                                 std::uint64_t file_size) {
    return clamp_offset(align4k(std::uint64_t(rng.uniform(0.0, double(file_size)))),
                        size, file_size);
}

/// Which of `files` files a request targets: file f with probability
/// proportional to 1/(f+1)^zipf_s when zipf_s > 0, uniformly otherwise.
/// A pick makes one rng.uniform draw (Zipf), one rng.uniform_int draw
/// (uniform over several files) or none (a single file).
class FilePicker {
public:
    FilePicker(std::size_t files, double zipf_s);
    [[nodiscard]] std::size_t pick(sim::Rng& rng) const;

private:
    std::size_t files_;
    std::vector<double> cdf_;  ///< cumulative popularity; empty when uniform
};

/// The workload API, after CODES' get_next(): every request source — a
/// profile, a scenario generator (generator.hpp), a trace or model
/// replay — is a pull-based stream of timed requests. The file list
/// comes up front, then requests one at a time in nondecreasing time
/// order, each naming its file by its index in files() (as CODES names
/// a file by a numeric id). core::run_capture pumps one request at a
/// time in both capture modes, so streamed and in-memory runs see the
/// exact same request sequence and a multi-million-request schedule is
/// never materialized. Streams are single-pass: open a fresh one (same
/// config + seed) to re-read the same sequence.
class ScheduleStream {
public:
    virtual ~ScheduleStream() = default;
    ScheduleStream(const ScheduleStream&) = delete;
    ScheduleStream& operator=(const ScheduleStream&) = delete;

    [[nodiscard]] virtual const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const = 0;

    /// Next request, or nullopt once the schedule is exhausted; exhaustion
    /// is permanent (every later call also returns nullopt). Times are
    /// nondecreasing across calls — enforced here at the stream boundary,
    /// not trusted to each implementation: StreamingSink's open_hold/
    /// close_hold watermark ordering silently corrupts if a misbehaving
    /// generator ever steps time backwards, so that bug must die loudly at
    /// its source. Throws std::logic_error naming both timestamps, or
    /// naming the index and the list's size when a request's file is not
    /// in files().
    [[nodiscard]] std::optional<gfs::RequestSpec> next();

protected:
    ScheduleStream() = default;

    /// The implementation hook next() wraps with the invariant checks.
    [[nodiscard]] virtual std::optional<gfs::RequestSpec> poll() = 0;

private:
    double last_time_ = -1.0;  ///< all valid request times are >= 0
    bool exhausted_ = false;
};

/// A named workload archetype. open_stream() is its one schedule;
/// generate() is that stream drained, so a materialized workload and a
/// pumped capture see the same requests by construction.
class Profile {
public:
    virtual ~Profile() = default;
    [[nodiscard]] virtual std::string name() const = 0;

    /// Open a pull-based stream over this profile's schedule, drawing
    /// from `rng`. Micro, OLTP and log-append draw one request per pull
    /// in O(1) memory; web-search and streaming build their schedule up
    /// front and sort it by time.
    [[nodiscard]] virtual std::unique_ptr<ScheduleStream> open_stream(
        sim::Rng rng) const = 0;

    /// The whole schedule at once: open_stream(rng) drained.
    [[nodiscard]] Workload generate(sim::Rng rng) const;
};

/// Fixed-size request microbenchmark — the paper's Table 2 driver.
/// Generates `count` requests with Poisson arrivals; each is a read of
/// `read_size` with probability `read_fraction`, else a write of
/// `write_size`.
class MicroProfile final : public Profile {
public:
    struct Params {
        std::size_t count = 200;
        double arrival_rate = 20.0;       ///< requests/second
        std::uint64_t read_size = 64ull << 10;
        std::uint64_t write_size = 4ull << 20;
        double read_fraction = 0.5;
        std::uint64_t file_size = 1ull << 30;
        bool sequential = false;          ///< sequential vs random offsets
    };
    explicit MicroProfile(Params p) : p_(p) {}
    [[nodiscard]] std::string name() const override { return "micro"; }
    [[nodiscard]] std::unique_ptr<ScheduleStream> open_stream(
        sim::Rng rng) const override;
    [[nodiscard]] const Params& params() const noexcept { return p_; }

private:
    Params p_;
};

/// OLTP-like: small (4-16 KB) random reads and writes against one large
/// table file, 70% reads, bursty MMPP arrivals.
class OltpProfile final : public Profile {
public:
    struct Params {
        std::size_t count = 2000;
        double base_rate = 200.0;      ///< quiet-phase arrivals/second
        double burst_multiplier = 5.0;
        double read_fraction = 0.7;
        std::uint64_t table_size = 4ull << 30;
    };
    explicit OltpProfile(Params p) : p_(p) {}
    [[nodiscard]] std::string name() const override { return "oltp"; }
    [[nodiscard]] std::unique_ptr<ScheduleStream> open_stream(
        sim::Rng rng) const override;

private:
    Params p_;
};

/// Web-search-like: read-dominant, Zipf-popular index shards, lognormal
/// result sizes.
class WebSearchProfile final : public Profile {
public:
    struct Params {
        std::size_t count = 2000;
        double arrival_rate = 100.0;
        std::size_t shards = 32;
        std::uint64_t shard_size = 256ull << 20;
        double zipf_s = 0.9;
        double read_fraction = 0.99;   ///< the rest are index updates
        double size_log_mean = 11.0;   ///< ln bytes: e^11 ~ 60 KB
        double size_log_sigma = 0.6;
    };
    explicit WebSearchProfile(Params p) : p_(p) {}
    [[nodiscard]] std::string name() const override { return "websearch"; }
    [[nodiscard]] std::unique_ptr<ScheduleStream> open_stream(
        sim::Rng rng) const override;

private:
    Params p_;
};

/// Streaming-media-like (MediSyn-flavored): Poisson session arrivals;
/// each session reads a Zipf-popular media file sequentially in fixed
/// segments at a steady playback rate.
class StreamingProfile final : public Profile {
public:
    struct Params {
        std::size_t sessions = 50;
        double session_rate = 2.0;       ///< session starts/second
        std::size_t files = 20;
        std::uint64_t file_size = 512ull << 20;
        double zipf_s = 1.1;
        std::uint64_t segment = 1ull << 20;  ///< bytes per segment read
        double segment_interval = 0.1;       ///< seconds between segments
        std::size_t mean_segments = 20;      ///< geometric session length
    };
    explicit StreamingProfile(Params p) : p_(p) {}
    [[nodiscard]] std::string name() const override { return "streaming"; }
    [[nodiscard]] std::unique_ptr<ScheduleStream> open_stream(
        sim::Rng rng) const override;

private:
    Params p_;
};

/// Log-append: write-only record appends to a few log files (commit-log /
/// logging tier behavior; exercises the GFS record-append path with its
/// chunk padding and sequential disk locality).
class LogAppendProfile final : public Profile {
public:
    struct Params {
        std::size_t count = 1000;
        double arrival_rate = 50.0;
        std::size_t logs = 4;
        std::uint64_t initial_size = 1ull << 20;
        std::uint64_t min_record = 4096;
        std::uint64_t max_record = 256ull << 10;
    };
    explicit LogAppendProfile(Params p) : p_(p) {}
    [[nodiscard]] std::string name() const override { return "logappend"; }
    [[nodiscard]] std::unique_ptr<ScheduleStream> open_stream(
        sim::Rng rng) const override;

private:
    Params p_;
};

}  // namespace kooza::workloads
