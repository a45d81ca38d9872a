// kooza_generate — load a saved KOOZA model (from kooza_model --save),
// generate a synthetic workload, replay it on one server built from the
// default cluster hardware (gfs::GfsConfig{}, the hardware kooza_capture
// simulates) and write the resulting traces (--out, in --format csv|bin).
// This is the deployment half of the paper's methodology: the model file
// stands in for the application.
//
// Usage:
//   kooza_generate <model-file> [--count N] [--seed S] [--out DIR]
//                  [--format csv|bin]

#include <iostream>

#include "cli_util.hpp"
#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/serialize.hpp"
#include "stats/descriptive.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"

namespace {

constexpr const char* kUsage =
    "usage: kooza_generate <model-file> [--count N] [--seed S] [--out DIR] "
    "[--format csv|bin]\n";

}  // namespace

int main(int argc, char** argv) {
    using namespace kooza;
    try {
        cli::Args args(argc, argv);
        if (const auto flag = args.unknown_flag({"count", "format", "out", "seed"})) {
            std::cerr << "kooza_generate: unknown flag --" << *flag << "\n" << kUsage;
            return 2;
        }
        if (args.positional().size() != 1) {
            std::cerr << kUsage;
            return 2;
        }
        const auto fmt = trace::format_from_string(args.get("format", "csv"));
        if (!fmt) {
            std::cerr << "kooza_generate: --format must be csv or bin\n";
            return 2;
        }
        const auto model = core::load_model(
            std::filesystem::path(args.positional()[0]));
        std::cout << "loaded " << model.describe() << "\n";

        const auto count = std::size_t(args.get_u64("count", 500));
        sim::Rng rng(args.get_u64("seed", 42));
        const auto workload = core::Generator(model).generate(count, rng);

        core::ReplayConfig rc;
        rc.cpu_verify_fraction = model.cpu_verify_fraction();
        core::Replayer replayer(rc);
        const auto res = replayer.replay(workload);

        const auto features = trace::extract_features(res.traces);
        std::cout << "generated " << workload.requests.size() << " requests\n"
                  << "mean latency "
                  << stats::mean(trace::column_latency(features)) * 1e3 << " ms, p99 "
                  << stats::quantile(trace::column_latency(features), 0.99) * 1e3
                  << " ms\n";
        if (res.network_drops > 0)
            std::cout << "network drops: " << res.network_drops << "\n";
        if (res.unknown_phases > 0)
            std::cout << "WARNING: replay skipped " << res.unknown_phases
                      << " unknown phase(s); results understate request cost "
                         "(core.replayer.unknown_phases_total)\n";

        const auto out = args.get("out", "");
        if (!out.empty()) {
            trace::write_traces(res.traces, out, *fmt);
            std::cout << "wrote synthetic traces to " << out << " ("
                      << trace::to_string(*fmt) << ")\n";
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "kooza_generate: " << e.what() << "\n";
        return 1;
    }
}
