// kooza_model — the full KOOZA pipeline over trace dirs (CSV or
// kooza.trace/1 binary, auto-detected): train a model, print it,
// generate a synthetic workload, replay it on the device models, and
// validate features + latency against the original. Optionally writes
// the replayed traces back out (--out, in --format csv|bin).
//
// Usage:
//   kooza_model <trace-dir> [--baseline kooza|hmm] [--generate N] [--seed S]
//               [--lbn-ranges N] [--util-levels N] [--hmm-states N]
//               [--out DIR] [--format csv|bin] [--save MODEL-FILE]
//               [--threads N] [--metrics FILE]
//
// --baseline hmm swaps the KOOZA trainer for the Harrison-style HMM
// storage baseline (baselines::HmmModel); --hmm-states sets its hidden
// state count (1..64) and is only valid there, just as --lbn-ranges /
// --util-levels / --save are only valid for the KOOZA model. HMM
// workloads replay in independent mode (the model carries no phase
// structure).
//
// --metrics FILE exports the pipeline's metrics registry (train/generate/
// replay counters and timers) after the run; ".csv" selects CSV,
// anything else canonical JSON.

#include <iostream>

#include "baselines/hmm.hpp"
#include "cli_util.hpp"
#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "core/validator.hpp"
#include "obs/export.hpp"
#include "par/pool.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"

namespace {

constexpr const char* kUsage =
    "usage: kooza_model <trace-dir> [--baseline kooza|hmm] [--generate N] "
    "[--seed S] [--lbn-ranges N] [--util-levels N] [--hmm-states N] [--out DIR] "
    "[--format csv|bin] [--save MODEL-FILE] [--threads N] [--metrics FILE]\n";

}  // namespace

int main(int argc, char** argv) {
    using namespace kooza;
    try {
        cli::Args args(argc, argv);
        if (const auto flag = args.unknown_flag(
                {"baseline", "format", "generate", "hmm-states", "lbn-ranges",
                 "metrics", "out", "save", "seed", "threads", "util-levels"})) {
            std::cerr << "kooza_model: unknown flag --" << *flag << "\n" << kUsage;
            return 2;
        }
        if (args.positional().size() != 1) {
            std::cerr << kUsage;
            return 2;
        }
        const auto fmt = trace::format_from_string(args.get("format", "csv"));
        if (!fmt) {
            std::cerr << "kooza_model: --format must be csv or bin\n";
            return 2;
        }
        const auto baseline = args.get("baseline", "kooza");
        if (baseline != "kooza" && baseline != "hmm") {
            std::cerr << "kooza_model: --baseline must be kooza or hmm\n";
            return 2;
        }
        // Per-model knobs are rejected, not ignored, on the other model —
        // a silently dropped flag reads as a tighter fit that never happened.
        if (baseline != "hmm" && args.has("hmm-states")) {
            std::cerr << "kooza_model: --hmm-states requires --baseline hmm\n";
            return 2;
        }
        if (baseline == "hmm") {
            for (const char* flag : {"lbn-ranges", "util-levels", "save"}) {
                if (args.has(flag)) {
                    std::cerr << "kooza_model: --" << flag
                              << " only applies to --baseline kooza\n";
                    return 2;
                }
            }
        }
        // Checked before the trace is read: Baum-Welch costs n^2 per
        // observation, so the count is bounded (HmmModel::kMaxStates).
        const auto hmm_states = args.get_u64("hmm-states", 4);
        if (hmm_states < 1 || hmm_states > baselines::HmmModel::kMaxStates) {
            std::cerr << "kooza_model: --hmm-states must be in 1.."
                      << baselines::HmmModel::kMaxStates << ", got " << hmm_states
                      << "\n"
                      << kUsage;
            return 2;
        }
        // 0 = auto (KOOZA_THREADS env, else hardware concurrency).
        par::set_threads(std::size_t(args.get_u64("threads", 0)));
        const auto ts = trace::read_traces(args.positional()[0]);
        if (ts.requests.empty()) {
            std::cerr << "no completed requests in " << args.positional()[0] << "\n";
            return 1;
        }

        const auto n = std::size_t(args.get_u64("generate", ts.requests.size()));
        sim::Rng rng(args.get_u64("seed", 42));
        core::SyntheticWorkload synthetic;
        auto replay_mode = core::ReplayMode::kStructured;
        core::ReplayConfig rc;

        if (baseline == "hmm") {
            baselines::HmmConfig hc;
            hc.n_states = std::size_t(hmm_states);
            const auto model = baselines::HmmModel::train(ts, hc);
            std::cout << model.describe() << "\n"
                      << "run: seed=" << args.get_u64("seed", 42)
                      << " threads=" << par::threads() << "\n";
            synthetic = model.generate(n, rng);
            replay_mode = core::ReplayMode::kIndependent;
            rc.cpu_verify_fraction = 0.4;
        } else {
            core::TrainerConfig tc;
            tc.workload_name = args.positional()[0];
            tc.lbn_ranges = std::size_t(args.get_u64("lbn-ranges", 4));
            tc.util_levels = std::size_t(args.get_u64("util-levels", 4));
            const auto model = core::Trainer(tc).train(ts);
            std::cout << model.describe() << "\n"
                      << "run: seed=" << args.get_u64("seed", 42)
                      << " threads=" << par::threads() << "\n";

            const auto save_path = args.get("save", "");
            if (!save_path.empty()) {
                core::save_model(model, std::filesystem::path(save_path));
                std::cout << "saved model to " << save_path
                          << " (load with kooza_generate)\n";
            }
            synthetic = core::Generator(model).generate(n, rng);
            rc.cpu_verify_fraction = model.cpu_verify_fraction();
        }

        core::Replayer replayer(rc);
        const auto replayed = replayer.replay(synthetic, replay_mode);

        const auto orig_features = trace::extract_features(ts);
        const auto synth_features = trace::extract_features(replayed.traces);
        auto report = core::compare_features(
            orig_features, synth_features,
            (baseline == "hmm" ? "HMM" : "KOOZA") +
                std::string(" synthetic vs original"));
        report.unknown_phases = replayed.unknown_phases;
        std::cout << "\n" << report.to_table() << "\n"
                  << "max feature variation: " << report.max_feature_variation()
                  << " %\nlatency variation:     " << report.latency_variation()
                  << " %\n";

        // Per-type breakdown: with a bimodal read/write mix the aggregate
        // means above also carry mix-sampling noise; the per-type rows are
        // the model-fidelity signal (the paper's Table 2 is per-request).
        auto by_type = [](const std::vector<trace::RequestFeatures>& fs,
                          trace::IoType t) {
            std::vector<trace::RequestFeatures> out;
            for (const auto& f : fs)
                if (f.storage_type == t) out.push_back(f);
            return out;
        };
        for (auto type : {trace::IoType::kRead, trace::IoType::kWrite}) {
            const auto o = by_type(orig_features, type);
            const auto s = by_type(synth_features, type);
            if (o.empty() || s.empty()) continue;
            std::cout << "\n"
                      << core::compare_features(
                             o, s,
                             std::string("per-type: ") + trace::to_string(type))
                             .to_table();
        }

        const auto out = args.get("out", "");
        if (!out.empty()) {
            trace::write_traces(replayed.traces, out, *fmt);
            std::cout << "wrote replayed synthetic traces to " << out << " ("
                      << trace::to_string(*fmt) << ")\n";
        }

        const auto metrics_path = args.get("metrics", "");
        if (!metrics_path.empty()) {
            // Wall timers (train/generate durations) stay in: this export
            // is for inspecting a run, not for golden comparisons.
            obs::write_metrics(obs::Registry::global().snapshot(), metrics_path);
            std::cout << "wrote metrics to " << metrics_path << "\n";
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "kooza_model: " << e.what() << "\n";
        return 1;
    }
}
