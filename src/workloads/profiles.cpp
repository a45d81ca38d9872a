#include "workloads/profiles.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "stats/distributions.hpp"

namespace kooza::workloads {

std::optional<gfs::RequestSpec> ScheduleStream::next() {
    if (exhausted_) return std::nullopt;
    auto spec = poll();
    if (!spec) {
        exhausted_ = true;
        return std::nullopt;
    }
    if (spec->time < last_time_) {
        std::ostringstream os;
        os << "ScheduleStream: nondecreasing-time contract violated: request at t="
           << spec->time << " after t=" << last_time_;
        throw std::logic_error(os.str());
    }
    if (spec->file >= files().size())
        throw std::logic_error("ScheduleStream: file-index contract violated: request "
                               "names file " + std::to_string(spec->file) +
                               " of a " + std::to_string(files().size()) +
                               "-file list");
    last_time_ = spec->time;
    return spec;
}

FilePicker::FilePicker(std::size_t files, double zipf_s) : files_(files) {
    if (!(zipf_s > 0.0) || files < 2) return;
    cdf_.resize(files);
    double total = 0.0;
    for (std::size_t f = 0; f < files; ++f) {
        total += 1.0 / std::pow(double(f + 1), zipf_s);
        cdf_[f] = total;
    }
    for (double& c : cdf_) c /= total;
}

std::size_t FilePicker::pick(sim::Rng& rng) const {
    if (!cdf_.empty()) {
        const double u = rng.uniform(0.0, 1.0);
        const auto f = std::size_t(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                                   cdf_.begin());
        return std::min(f, files_ - 1);
    }
    return files_ > 1 ? std::size_t(rng.uniform_int(0, std::int64_t(files_) - 1)) : 0;
}

std::vector<gfs::FileId> create_files(
    gfs::Cluster& cluster,
    const std::vector<std::pair<std::string, std::uint64_t>>& files) {
    std::vector<gfs::FileId> ids;
    ids.reserve(files.size());
    for (const auto& [name, size] : files) ids.push_back(cluster.create_file(name, size));
    return ids;
}

void Workload::install(gfs::Cluster& cluster) const {
    const auto ids = create_files(cluster, files);
    for (gfs::RequestSpec r : requests) {
        r.file = ids.at(r.file);
        cluster.submit(r);
    }
    cluster.end_input();
}

Workload Profile::generate(sim::Rng rng) const {
    const auto stream = open_stream(rng);
    Workload w;
    w.files = stream->files();
    while (auto r = stream->next()) w.requests.push_back(std::move(*r));
    return w;
}

namespace {

/// `count` requests drawn one per pull by `draw`, a mutable callable that
/// carries the schedule's state (clock, cursor, RNG) between pulls.
template <typename Draw>
class DrawStream final : public ScheduleStream {
public:
    DrawStream(std::vector<std::pair<std::string, std::uint64_t>> files,
               std::size_t count, Draw draw)
        : files_(std::move(files)), left_(count), draw_(std::move(draw)) {}
    const std::vector<std::pair<std::string, std::uint64_t>>& files() const override {
        return files_;
    }
    std::optional<gfs::RequestSpec> poll() override {
        if (left_ == 0) return std::nullopt;
        --left_;
        return draw_();
    }

private:
    std::vector<std::pair<std::string, std::uint64_t>> files_;
    std::size_t left_;
    Draw draw_;
};

template <typename Draw>
std::unique_ptr<ScheduleStream> draw_stream(
    std::vector<std::pair<std::string, std::uint64_t>> files, std::size_t count,
    Draw draw) {
    return std::make_unique<DrawStream<Draw>>(std::move(files), count, std::move(draw));
}

/// A schedule built whole and replayed, for profiles whose requests are
/// not drawn in time order: sorted by time once, then served in order.
class SortedStream final : public ScheduleStream {
public:
    explicit SortedStream(Workload w) : w_(std::move(w)) {
        std::sort(w_.requests.begin(), w_.requests.end(),
                  [](const gfs::RequestSpec& a, const gfs::RequestSpec& b) {
                      return a.time < b.time;
                  });
    }
    const std::vector<std::pair<std::string, std::uint64_t>>& files() const override {
        return w_.files;
    }
    std::optional<gfs::RequestSpec> poll() override {
        if (ix_ >= w_.requests.size()) return std::nullopt;
        return std::move(w_.requests[ix_++]);
    }

private:
    Workload w_;
    std::size_t ix_ = 0;
};

}  // namespace

std::unique_ptr<ScheduleStream> MicroProfile::open_stream(sim::Rng rng) const {
    return draw_stream(
        {{"micro.dat", p_.file_size}}, p_.count,
        [p = p_, rng, t = 0.0, seq_cursor = std::uint64_t(0)]() mutable {
            t += rng.exponential(p.arrival_rate);
            gfs::RequestSpec r;
            r.time = t;
            r.type = rng.bernoulli(p.read_fraction) ? trace::IoType::kRead
                                                    : trace::IoType::kWrite;
            r.size = r.type == trace::IoType::kRead ? p.read_size : p.write_size;
            if (p.sequential) {
                r.offset = clamp_offset(seq_cursor, r.size, p.file_size);
                seq_cursor += r.size;
                if (seq_cursor + r.size > p.file_size) seq_cursor = 0;
            } else {
                r.offset = random_offset(rng, r.size, p.file_size);
            }
            return r;
        });
}

std::unique_ptr<ScheduleStream> OltpProfile::open_stream(sim::Rng rng) const {
    return draw_stream(
        {{"table.db", p_.table_size}}, p_.count,
        [p = p_, rng, t = 0.0, phase = 0]() mutable {
            // MMPP(2): quiet at base_rate, bursts at base_rate * burst_multiplier.
            const double burst_rate = p.base_rate * p.burst_multiplier;
            const double switch_quiet = 0.5;  // leave quiet phase every ~2 s
            const double switch_burst = 2.0;  // bursts last ~0.5 s
            // Competing exponentials between arrival and phase switch.
            for (;;) {
                const double rate = phase == 0 ? p.base_rate : burst_rate;
                const double sw = phase == 0 ? switch_quiet : switch_burst;
                const double ta = rng.exponential(rate);
                const double ts = rng.exponential(sw);
                if (ta <= ts) {
                    t += ta;
                    break;
                }
                t += ts;
                phase ^= 1;
            }
            gfs::RequestSpec r;
            r.time = t;
            r.type = rng.bernoulli(p.read_fraction) ? trace::IoType::kRead
                                                    : trace::IoType::kWrite;
            // Page-sized accesses: 4, 8 or 16 KB.
            static constexpr std::uint64_t kPages[] = {4096, 8192, 16384};
            r.size = kPages[std::size_t(rng.uniform_int(0, 2))];
            r.offset = random_offset(rng, r.size, p.table_size);
            return r;
        });
}

std::unique_ptr<ScheduleStream> WebSearchProfile::open_stream(sim::Rng rng) const {
    Workload w;
    for (std::size_t s = 0; s < p_.shards; ++s)
        w.files.emplace_back("shard." + std::to_string(s), p_.shard_size);
    stats::ZipfSampler popularity(p_.shards, p_.zipf_s);
    double t = 0.0;
    for (std::size_t i = 0; i < p_.count; ++i) {
        t += rng.exponential(p_.arrival_rate);
        gfs::RequestSpec r;
        r.time = t;
        r.file = gfs::FileId(popularity.sample(rng));
        r.type = rng.bernoulli(p_.read_fraction) ? trace::IoType::kRead
                                                 : trace::IoType::kWrite;
        const double bytes = rng.lognormal(p_.size_log_mean, p_.size_log_sigma);
        r.size = std::clamp<std::uint64_t>(std::uint64_t(bytes), 4096, 8ull << 20);
        r.offset = random_offset(rng, r.size, p_.shard_size);
        w.requests.push_back(std::move(r));
    }
    return std::make_unique<SortedStream>(std::move(w));
}

std::unique_ptr<ScheduleStream> StreamingProfile::open_stream(sim::Rng rng) const {
    Workload w;
    for (std::size_t f = 0; f < p_.files; ++f)
        w.files.emplace_back("media." + std::to_string(f), p_.file_size);
    stats::ZipfSampler popularity(p_.files, p_.zipf_s);
    double session_start = 0.0;
    for (std::size_t s = 0; s < p_.sessions; ++s) {
        session_start += rng.exponential(p_.session_rate);
        const auto file = gfs::FileId(popularity.sample(rng));
        // Geometric session length (>= 1 segment).
        const std::size_t segments =
            1 + std::size_t(rng.geometric(1.0 / double(p_.mean_segments)));
        // Start position: beginning of the file for most viewers, random
        // seek for some (interrupted playback).
        std::uint64_t cursor =
            rng.bernoulli(0.8) ? 0
                               : align4k(std::uint64_t(
                                     rng.uniform(0.0, double(p_.file_size) / 2)));
        for (std::size_t k = 0; k < segments; ++k) {
            if (cursor + p_.segment > p_.file_size) break;
            gfs::RequestSpec r;
            r.time = session_start + double(k) * p_.segment_interval;
            r.file = file;
            r.type = trace::IoType::kRead;
            r.size = p_.segment;
            r.offset = cursor;
            cursor += p_.segment;
            w.requests.push_back(std::move(r));
        }
    }
    return std::make_unique<SortedStream>(std::move(w));
}

std::unique_ptr<ScheduleStream> LogAppendProfile::open_stream(sim::Rng rng) const {
    std::vector<std::pair<std::string, std::uint64_t>> files;
    for (std::size_t l = 0; l < p_.logs; ++l)
        files.emplace_back("log." + std::to_string(l), p_.initial_size);
    return draw_stream(std::move(files), p_.count, [p = p_, rng, t = 0.0]() mutable {
        t += rng.exponential(p.arrival_rate);
        gfs::RequestSpec r;
        r.time = t;
        r.file = gfs::FileId(rng.uniform_int(0, std::int64_t(p.logs) - 1));
        r.type = trace::IoType::kWrite;
        r.append = true;
        r.size = align4k(std::uint64_t(
                     rng.uniform(double(p.min_record), double(p.max_record))));
        r.size = std::max<std::uint64_t>(r.size, 512);
        return r;
    });
}

}  // namespace kooza::workloads
