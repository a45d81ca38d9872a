#include "core/model_replay.hpp"

#include <algorithm>

#include "core/model_walk.hpp"
#include "core/serialize.hpp"
#include "hw/disk.hpp"

namespace kooza::core {

namespace {
constexpr const char* kReplayFile = "model-replay.dat";
constexpr hw::DiskParams kDisk{};
/// The simulated disk's bytes: the replay file maps onto all of it.
constexpr std::uint64_t kReplayFileBytes = kDisk.lbn_count * kDisk.block_size;
}  // namespace

struct ModelReplayGenerator::Impl {
    ServerModel model;
    Params p;
    sim::Rng rng;
    detail::ModelWalker walker;
    std::size_t emitted = 0;

    Impl(ServerModel m, Params params)
        : model(std::move(m)), p(params), rng(p.seed), walker(model, 0.0) {}
};

ModelReplayGenerator::ModelReplayGenerator(ServerModel model, Params p)
    : impl_(std::make_unique<Impl>(std::move(model), p)) {
    files_.emplace_back(kReplayFile, kReplayFileBytes);
}

ModelReplayGenerator::ModelReplayGenerator(const std::filesystem::path& model_file,
                                           Params p)
    : ModelReplayGenerator(load_model(model_file), p) {}

ModelReplayGenerator::~ModelReplayGenerator() = default;

std::optional<gfs::RequestSpec> ModelReplayGenerator::poll() {
    if (impl_->emitted >= impl_->p.count) return std::nullopt;
    ++impl_->emitted;
    const SyntheticRequest s = impl_->walker.next(impl_->rng);

    gfs::RequestSpec r;
    r.time = s.time;
    r.type = s.type;
    r.size = std::min(s.storage_bytes, kReplayFileBytes);
    // The model's LBN counts disk blocks: its byte address in the
    // disk-sized file, 4 KB-aligned and kept in bounds.
    r.offset = workloads::clamp_offset(workloads::align4k(s.lbn * kDisk.block_size),
                                       r.size, kReplayFileBytes);
    return r;
}

}  // namespace kooza::core
