#include "core/generator.hpp"

#include <stdexcept>

#include "core/model_walk.hpp"
#include "obs/metrics.hpp"

namespace kooza::core {

namespace {

struct GeneratorMetrics {
    obs::Counter& generated = obs::counter("core.generator.requests_total");
    obs::Counter& bytes =
        obs::counter("core.generator.bytes_total", obs::Unit::kBytes);
    obs::Histogram& synth_wall_ns = obs::histogram(
        "core.generator.synth_wall_ns", obs::Unit::kNanoseconds, /*wall=*/true);
};

GeneratorMetrics& metrics() {
    static GeneratorMetrics m;
    return m;
}

}  // namespace

SyntheticWorkload Generator::generate(std::size_t count, sim::Rng& rng,
                                      double start) const {
    if (count == 0) throw std::invalid_argument("Generator::generate: count 0");
    const obs::TimerScope synth_timer(metrics().synth_wall_ns);
    SyntheticWorkload out;
    out.model_name = "kooza:" + model_.workload_name();
    out.requests.reserve(count);

    detail::ModelWalker walker(model_, start);
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < count; ++i)
        bytes += out.requests.emplace_back(walker.next(rng)).storage_bytes;
    metrics().generated.add(count);
    metrics().bytes.add(bytes);
    return out;
}

}  // namespace kooza::core
