#include "workloads/closedloop.hpp"

#include <stdexcept>

#include "par/pool.hpp"

namespace kooza::workloads {

ClosedLoopPool::ClosedLoopPool(ClosedLoopParams p)
    : p_(p), picker_(p.files, p.zipf_s) {
    if (p_.clients == 0)
        throw std::invalid_argument("ClosedLoopPool: zero clients");
    if (p_.outstanding == 0)
        throw std::invalid_argument("ClosedLoopPool: zero outstanding window");
    if (p_.files == 0) throw std::invalid_argument("ClosedLoopPool: zero files");
    if (p_.read_size == 0 || p_.write_size == 0)
        throw std::invalid_argument("ClosedLoopPool: zero request size");
    if (p_.file_size == 0)
        throw std::invalid_argument("ClosedLoopPool: zero file size");
    if (p_.think_time < 0.0)
        throw std::invalid_argument("ClosedLoopPool: negative think time");
    if (p_.read_fraction < 0.0 || p_.read_fraction > 1.0)
        throw std::invalid_argument("ClosedLoopPool: read fraction outside [0, 1]");

    for (std::size_t f = 0; f < p_.files; ++f)
        files_.emplace_back(p_.file_prefix + std::to_string(f), p_.file_size);
    rngs_.reserve(p_.clients);
    for (std::size_t c = 0; c < p_.clients; ++c)
        rngs_.emplace_back(par::shard_seed(p_.seed, c));
}

std::optional<gfs::RequestSpec> ClosedLoopPool::next(std::uint32_t client,
                                                     double now) {
    if (client >= p_.clients)
        throw std::out_of_range("ClosedLoopPool::next: client " +
                                std::to_string(client) + " of " +
                                std::to_string(p_.clients));
    if (issued_ >= p_.total) return std::nullopt;
    ++issued_;
    auto& rng = rngs_[client];

    gfs::RequestSpec r;
    const double think =
        p_.think_time > 0.0 ? rng.exponential(1.0 / p_.think_time) : 0.0;
    r.time = now + think;
    r.client = client;

    r.file = gfs::FileId(picker_.pick(rng));
    r.type = rng.bernoulli(p_.read_fraction) ? trace::IoType::kRead
                                             : trace::IoType::kWrite;
    r.size = r.type == trace::IoType::kRead ? p_.read_size : p_.write_size;
    r.offset = random_offset(rng, r.size, p_.file_size);
    return r;
}

}  // namespace kooza::workloads
