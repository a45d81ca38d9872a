// Trained-model replay generator: a trained KOOZA ServerModel as a
// pull-based workload generator. Walks the model's arrival process and
// annotated chains one request at a time (same draw order as
// Generator::generate — see model_walk.hpp) and maps each synthetic
// request onto a gfs::RequestSpec, so captured-and-trained workloads can
// be re-driven through the capture pipeline and cross-examined against
// the originals. The one replay file (index 0 of files()) is as large as
// the simulated disk (hw::DiskParams), and a request sits at its LBN
// times the block size: on one server, whose only file it is, chunk c
// starts at block c × blocks per chunk (gfs::chunk_base_lbn), so the
// request reaches the disk at its own LBN (rounded down to 4 KB).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "core/model.hpp"
#include "workloads/generator.hpp"

namespace kooza::core {

class ModelReplayGenerator final : public workloads::ScheduleStream {
public:
    struct Params {
        std::size_t count = 500;  ///< requests to emit before exhaustion
        std::uint64_t seed = 7;   ///< model-walk RNG seed
    };

    /// Replay an in-memory model (takes ownership).
    ModelReplayGenerator(ServerModel model, Params p);
    /// Replay a model file written by core::save_model.
    ModelReplayGenerator(const std::filesystem::path& model_file, Params p);
    ~ModelReplayGenerator() override;

    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const override {
        return files_;
    }

protected:
    [[nodiscard]] std::optional<gfs::RequestSpec> poll() override;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::vector<std::pair<std::string, std::uint64_t>> files_;
};

}  // namespace kooza::core
