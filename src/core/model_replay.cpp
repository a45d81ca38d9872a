#include "core/model_replay.hpp"

#include <algorithm>

#include "core/model_walk.hpp"
#include "core/serialize.hpp"

namespace kooza::core {

namespace {
constexpr const char* kReplayFile = "model-replay.dat";
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
    files_.emplace_back(kReplayFile, impl_->p.file_size);
}

ModelReplayGenerator::ModelReplayGenerator(const std::filesystem::path& model_file,
                                           Params p)
    : ModelReplayGenerator(load_model(model_file), p) {}

ModelReplayGenerator::~ModelReplayGenerator() = default;

std::optional<gfs::RequestSpec> ModelReplayGenerator::poll() {
    if (impl_->emitted >= impl_->p.count) return std::nullopt;
    ++impl_->emitted;
    const SyntheticRequest s = impl_->walker.next(impl_->rng);

    const std::uint64_t file_size = impl_->p.file_size;
    gfs::RequestSpec r;
    r.time = s.time;
    r.type = s.type;
    r.file = kReplayFile;
    r.size = std::min(s.storage_bytes, file_size);
    // The model's LBN is a disk-address sample; fold it into the replay
    // file's byte range, 4 KB-aligned, and keep the request in bounds.
    r.offset = workloads::clamp_offset(workloads::align4k(s.lbn % file_size), r.size,
                                       file_size);
    return r;
}

}  // namespace kooza::core
