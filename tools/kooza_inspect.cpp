// kooza_inspect — load a trace directory (CSV or kooza.trace/1 binary,
// auto-detected) and print its inventory, per-request feature summary and
// the full characterization report (burstiness, self-similarity,
// stationarity, distribution families, PCA dimensionality).
//
// Usage: kooza_inspect <trace-dir> [--window SECONDS] [--metrics FILE]
//        kooza_inspect <trace-dir> --convert OUT-DIR [--format csv|bin]
//        kooza_inspect --metrics FILE
//
// --convert re-writes the directory's traces into OUT-DIR in --format
// (default csv — the interop path back from a binary capture to the
// human-readable layout) and skips the characterization report.
//
// --metrics FILE loads a metrics export (JSON or CSV, as written by
// kooza_capture/kooza_model --metrics) and prints a human-readable
// summary. With no trace directory it summarizes just the metrics file.

#include <iostream>

#include "cli_util.hpp"
#include "core/characterize.hpp"
#include "obs/export.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"

namespace {

constexpr const char* kUsage =
    "usage: kooza_inspect <trace-dir> [--window SECONDS] [--metrics FILE]\n"
    "       kooza_inspect <trace-dir> --convert OUT-DIR [--format csv|bin]\n"
    "       kooza_inspect --metrics FILE\n";

}  // namespace

int main(int argc, char** argv) {
    using namespace kooza;
    try {
        cli::Args args(argc, argv);
        if (const auto flag =
                args.unknown_flag({"convert", "format", "metrics", "window"})) {
            std::cerr << "kooza_inspect: unknown flag --" << *flag << "\n" << kUsage;
            return 2;
        }
        const auto metrics_path = args.get("metrics", "");
        const auto convert_dir = args.get("convert", "");
        if (args.positional().size() != 1 &&
            !(args.positional().empty() && !metrics_path.empty())) {
            std::cerr << kUsage;
            return 2;
        }
        if (!args.positional().empty() && !convert_dir.empty()) {
            const auto fmt = trace::format_from_string(args.get("format", "csv"));
            if (!fmt) {
                std::cerr << "kooza_inspect: --format must be csv or bin\n";
                return 2;
            }
            const auto& in_dir = args.positional()[0];
            const auto in_fmt = trace::detect_format(in_dir);
            const auto ts = trace::read_traces(in_dir, in_fmt);
            trace::write_traces(ts, convert_dir, *fmt);
            std::cout << "inventory: " << ts.summary() << "\n"
                      << "converted " << in_dir << " ("
                      << trace::to_string(in_fmt) << ") -> " << convert_dir
                      << " (" << trace::to_string(*fmt) << ")\n";
            return 0;
        }
        if (!args.positional().empty()) {
            const auto ts = trace::read_traces(args.positional()[0]);
            if (ts.empty()) {
                std::cerr << "no trace records found in " << args.positional()[0]
                          << "\n";
                return 1;
            }
            std::cout << "inventory: " << ts.summary() << "\n\n";
            const auto features = trace::extract_features(ts);
            std::cout << "first requests:\n";
            for (std::size_t i = 0; i < std::min<std::size_t>(5, features.size());
                 ++i)
                std::cout << "  " << features[i].to_string() << "\n";
            std::cout << "\ncharacterization:\n"
                      << core::characterize(ts, args.get_double("window", 0.5))
                             .to_string();
            try {
                std::cout << "\n" << core::correlation_report(ts).to_string();
            } catch (const std::invalid_argument&) {
                // Too few requests for a correlation study; skip quietly.
            }
        }
        if (!metrics_path.empty()) {
            const auto snap = obs::load_metrics(metrics_path);
            if (!args.positional().empty()) std::cout << "\n";
            std::cout << "metrics (" << metrics_path << "):\n"
                      << obs::summarize(snap);
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "kooza_inspect: " << e.what() << "\n";
        return 1;
    }
}
