#include "workloads/generator.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "trace/io.hpp"

namespace kooza::workloads {

// --------------------------------------------------------------------- mix

MixGenerator::MixGenerator(Params p,
                           std::unique_ptr<queueing::ArrivalProcess> arrivals,
                           sim::Rng rng)
    : p_(p), arrivals_(std::move(arrivals)), rng_(rng), picker_(p.files, p.zipf_s) {
    if (!arrivals_)
        throw std::invalid_argument("MixGenerator: null arrival process");
    if (p_.files == 0) throw std::invalid_argument("MixGenerator: zero files");
    if (p_.read_size == 0 || p_.write_size == 0)
        throw std::invalid_argument("MixGenerator: zero request size");
    arrivals_->reset();
    for (std::size_t f = 0; f < p_.files; ++f)
        files_.emplace_back(p_.file_prefix + std::to_string(f), p_.file_size);
}

std::optional<gfs::RequestSpec> MixGenerator::poll() {
    if (i_ >= p_.count) return std::nullopt;
    ++i_;
    t_ += arrivals_->next_interarrival(rng_);

    gfs::RequestSpec r;
    r.time = t_;
    r.file = gfs::FileId(picker_.pick(rng_));
    r.type = rng_.bernoulli(p_.read_fraction) ? trace::IoType::kRead
                                              : trace::IoType::kWrite;
    r.size = r.type == trace::IoType::kRead ? p_.read_size : p_.write_size;
    if (r.type == trace::IoType::kWrite && p_.append_writes) {
        r.append = true;
    } else {
        r.offset = random_offset(rng_, r.size, p_.file_size);
    }
    return r;
}

// -------------------------------------------------------------- checkpoint

CheckpointGenerator::CheckpointGenerator(Params p, sim::Rng rng)
    : p_(p), rng_(rng) {
    if (p_.ranks == 0) throw std::invalid_argument("CheckpointGenerator: zero ranks");
    if (p_.segment == 0)
        throw std::invalid_argument("CheckpointGenerator: zero segment");
    if (!(p_.bandwidth > 0.0))
        throw std::invalid_argument("CheckpointGenerator: bandwidth must be > 0");
    if (!(p_.mtti > 0.0))
        throw std::invalid_argument("CheckpointGenerator: mtti must be > 0");
    if (p_.checkpoint_bytes == 0)
        throw std::invalid_argument("CheckpointGenerator: zero checkpoint size");

    // Per-rank shard, rounded up to whole segments (>= one segment).
    const std::uint64_t raw = (p_.checkpoint_bytes + p_.ranks - 1) / p_.ranks;
    shard_ = ((std::max(raw, p_.segment) + p_.segment - 1) / p_.segment) * p_.segment;
    for (std::size_t r = 0; r < p_.ranks; ++r)
        files_.emplace_back("ckpt." + std::to_string(r), shard_);

    // Ranks write their shards concurrently at per-rank `bandwidth`, so a
    // checkpoint takes delta = shard/bandwidth; Daly '06 first-order
    // optimum tau = sqrt(2*delta*M) - delta, floored at delta (a shorter
    // compute phase than one checkpoint write is never optimal).
    delta_ = double(shard_) / p_.bandwidth;
    tau_ = std::max(delta_, std::sqrt(2.0 * delta_ * p_.mtti) - delta_);
    next_failure_ = rng_.exponential(1.0 / p_.mtti);
}

void CheckpointGenerator::refill() {
    const double seg_time = double(p_.segment) / p_.bandwidth;
    const std::size_t segs = std::size_t(shard_ / p_.segment);

    // A failure rolls the app back to its last complete checkpoint: every
    // rank reads its shard back in, then compute resumes.
    auto restart = [&](double f) {
        if (have_checkpoint_) {
            for (std::size_t k = 0; k < segs; ++k)
                for (std::size_t r = 0; r < p_.ranks; ++r) {
                    gfs::RequestSpec op;
                    op.time = f + double(k) * seg_time;
                    op.file = gfs::FileId(r);
                    op.offset = std::uint64_t(k) * p_.segment;
                    op.size = p_.segment;
                    op.type = trace::IoType::kRead;
                    buffer_.push_back(std::move(op));
                }
            t_ = f + double(segs) * seg_time;
        } else {
            t_ = f;  // nothing to restore yet; just lose the work
        }
        next_failure_ = t_ + rng_.exponential(1.0 / p_.mtti);
    };

    const double ckpt_start = t_ + tau_;
    if (next_failure_ < ckpt_start) {
        restart(next_failure_);
        return;
    }
    for (std::size_t k = 0; k < segs; ++k) {
        const double wt = ckpt_start + double(k) * seg_time;
        if (wt >= next_failure_) {
            // Interrupted mid-checkpoint: the partial writes above stand,
            // but the checkpoint is not usable — restore the previous one.
            restart(next_failure_);
            return;
        }
        for (std::size_t r = 0; r < p_.ranks; ++r) {
            gfs::RequestSpec op;
            op.time = wt;
            op.file = gfs::FileId(r);
            op.offset = std::uint64_t(k) * p_.segment;
            op.size = p_.segment;
            op.type = trace::IoType::kWrite;
            buffer_.push_back(std::move(op));
        }
    }
    t_ = ckpt_start + double(segs) * seg_time;
    have_checkpoint_ = true;
}

std::optional<gfs::RequestSpec> CheckpointGenerator::poll() {
    if (emitted_ >= p_.count) return std::nullopt;
    // refill() may legitimately produce nothing (a failure before the
    // first checkpoint); the guard bounds pathological parameter choices.
    for (int guard = 0; buffer_.empty() && guard < 100000; ++guard) refill();
    if (buffer_.empty()) return std::nullopt;
    ++emitted_;
    auto op = std::move(buffer_.front());
    buffer_.pop_front();
    return op;
}

// ------------------------------------------------------------ trace replay

TraceReplayGenerator::TraceReplayGenerator(const std::filesystem::path& trace_dir)
    : TraceReplayGenerator(trace_dir, Params{}) {}

TraceReplayGenerator::TraceReplayGenerator(const std::filesystem::path& trace_dir,
                                           Params p) {
    const auto ts = trace::read_traces(trace_dir);
    if (ts.requests.empty())
        throw std::runtime_error("TraceReplayGenerator: no request records in " +
                                 trace_dir.string());

    std::uint64_t max_size = 512;
    ops_.reserve(ts.requests.size());
    for (const auto& rec : ts.requests) {
        // A NaN arrival would also break the stable_sort below.
        if (!std::isfinite(rec.arrival))
            throw std::runtime_error(
                "TraceReplayGenerator: " + trace_dir.string() + ": request " +
                std::to_string(rec.request_id) + " has a non-finite arrival time");
        if (rec.bytes > kMaxRequestBytes)
            throw std::runtime_error(
                "TraceReplayGenerator: " + trace_dir.string() + ": request " +
                std::to_string(rec.request_id) + " has " + std::to_string(rec.bytes) +
                " bytes, above the " + std::to_string(kMaxRequestBytes) +
                "-byte limit");
        gfs::RequestSpec r;
        r.time = rec.arrival;
        r.type = rec.type;
        r.size = std::max<std::uint64_t>(rec.bytes, 512);
        // Offset re-laid-out deterministically from the request id (the
        // requests stream does not retain file placement).
        std::uint64_t h = (rec.request_id + 1) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 33;
        r.offset = h;  // clamped below once the file size is known
        max_size = std::max(max_size, r.size);
        ops_.push_back(std::move(r));
    }
    const std::uint64_t file_size = std::max(p.file_size, 2 * max_size);
    files_.emplace_back("replay.dat", file_size);
    for (auto& r : ops_)
        r.offset = clamp_offset(align4k(r.offset % file_size), r.size, file_size);

    // Request records land in completion order; replay needs arrival
    // order. Ties break by request id so the replay is deterministic.
    std::stable_sort(ops_.begin(), ops_.end(),
                     [](const gfs::RequestSpec& a, const gfs::RequestSpec& b) {
                         return a.time < b.time;
                     });
}

std::optional<gfs::RequestSpec> TraceReplayGenerator::poll() {
    if (ix_ >= ops_.size()) return std::nullopt;
    return ops_[ix_++];
}

// ------------------------------------------------------------------- merge

MergeGenerator::MergeGenerator(std::vector<std::unique_ptr<ScheduleStream>> parts)
    : parts_(std::move(parts)) {
    if (parts_.empty())
        throw std::invalid_argument("MergeGenerator: no sub-generators");
    std::set<std::string> seen;
    for (const auto& part : parts_) {
        if (!part) throw std::invalid_argument("MergeGenerator: null sub-generator");
        first_file_.push_back(gfs::FileId(files_.size()));
        for (const auto& f : part->files()) {
            if (!seen.insert(f.first).second)
                throw std::invalid_argument(
                    "MergeGenerator: file name collision between sub-generators: " +
                    f.first);
            files_.push_back(f);
        }
    }
    heads_.reserve(parts_.size());
    for (auto& part : parts_) heads_.push_back(part->next());
}

std::optional<gfs::RequestSpec> MergeGenerator::poll() {
    std::size_t best = heads_.size();
    for (std::size_t i = 0; i < heads_.size(); ++i)
        if (heads_[i] && (best == heads_.size() || heads_[i]->time < heads_[best]->time))
            best = i;
    if (best == heads_.size()) return std::nullopt;
    auto op = heads_[best];
    op->file += first_file_[best];
    heads_[best] = parts_[best]->next();
    return op;
}

}  // namespace kooza::workloads
