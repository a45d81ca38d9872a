#include "workloads/scenarios.hpp"

#include <algorithm>
#include <stdexcept>

#include "queueing/arrival.hpp"

namespace kooza::workloads {

namespace {

std::unique_ptr<ScheduleStream> make_diurnal(const ScenarioParams& p) {
    MixGenerator::Params mix;
    mix.count = p.count;
    mix.read_fraction = 0.7;
    mix.read_size = p.read_size;
    mix.write_size = p.write_size;
    mix.files = 8;
    mix.zipf_s = 0.9;
    mix.file_prefix = "diurnal.";
    auto arrivals = std::make_unique<queueing::ModulatedArrivals>(
        std::make_unique<queueing::DiurnalEnvelope>(p.rate, 0.8, p.period));
    return std::make_unique<MixGenerator>(mix, std::move(arrivals), sim::Rng(p.seed));
}

std::unique_ptr<ScheduleStream> make_flashcrowd(const ScenarioParams& p) {
    MixGenerator::Params mix;
    mix.count = p.count;
    mix.read_fraction = 0.95;  // crowds read the hot object; few updates
    mix.read_size = p.read_size;
    mix.write_size = p.write_size;
    mix.files = 16;
    mix.zipf_s = 1.2;  // sharply skewed popularity: the viral object
    mix.file_prefix = "crowd.";
    auto arrivals = std::make_unique<queueing::ModulatedArrivals>(
        std::make_unique<queueing::SpikeEnvelope>(p.rate, 8.0, p.period,
                                                  p.period / 10.0));
    return std::make_unique<MixGenerator>(mix, std::move(arrivals), sim::Rng(p.seed));
}

std::unique_ptr<ScheduleStream> make_tiered(const ScenarioParams& p) {
    // 70/30 split between a Zipf-read serving tier and a log-append
    // write tier, each with its own arrival stream and file namespace.
    const std::size_t reads = std::max<std::size_t>(1, (p.count * 7) / 10);
    const std::size_t writes = std::max<std::size_t>(1, p.count - reads);
    sim::Rng root(p.seed);
    auto read_rng = root.fork();
    auto write_rng = root.fork();

    MixGenerator::Params read_tier;
    read_tier.count = reads;
    read_tier.read_fraction = 1.0;
    read_tier.read_size = p.read_size;
    read_tier.files = 8;
    read_tier.zipf_s = 0.9;
    read_tier.file_prefix = "tier.read.";

    MixGenerator::Params write_tier;
    write_tier.count = writes;
    write_tier.read_fraction = 0.0;
    write_tier.write_size = p.write_size;
    write_tier.files = 2;
    write_tier.file_prefix = "tier.log.";
    write_tier.append_writes = true;  // commit-log tier uses record appends

    std::vector<std::unique_ptr<ScheduleStream>> parts;
    parts.push_back(std::make_unique<MixGenerator>(
        read_tier, std::make_unique<queueing::PoissonArrivals>(p.rate * 0.7),
        read_rng));
    parts.push_back(std::make_unique<MixGenerator>(
        write_tier,
        std::make_unique<queueing::PoissonArrivals>(std::max(p.rate * 0.3, 1e-6)),
        write_rng));
    return std::make_unique<MergeGenerator>(std::move(parts));
}

std::unique_ptr<ScheduleStream> make_checkpoint(const ScenarioParams& p) {
    CheckpointGenerator::Params ckpt;
    ckpt.count = p.count;
    ckpt.mtti = 2.0 * p.period;  // a couple of failures per capture
    ckpt.checkpoint_bytes = 256ull << 20;
    ckpt.bandwidth = 2e9;
    ckpt.ranks = 4;
    ckpt.segment = std::max<std::uint64_t>(p.write_size, 1ull << 20);
    return std::make_unique<CheckpointGenerator>(ckpt, sim::Rng(p.seed));
}

struct ScenarioEntry {
    const char* name;
    const char* description;
    std::unique_ptr<ScheduleStream> (*make)(const ScenarioParams&);
};

const ScenarioEntry kScenarios[] = {
    {"diurnal",
     "day/night sinusoidal load curve over a mixed read/write file set",
     &make_diurnal},
    {"flashcrowd",
     "periodic 8x flash-crowd spikes against Zipf-hot read objects",
     &make_flashcrowd},
    {"tiered",
     "Zipf read-serving tier time-merged with a log-append write tier",
     &make_tiered},
    {"checkpoint",
     "Daly-optimal HPC checkpoint writes with failure-driven restart reads",
     &make_checkpoint},
};

}  // namespace

const std::vector<std::string>& scenario_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto& s : kScenarios) v.emplace_back(s.name);
        return v;
    }();
    return names;
}

std::string describe_scenario(const std::string& name) {
    for (const auto& s : kScenarios)
        if (name == s.name) return s.description;
    return "";
}

std::unique_ptr<ScheduleStream> make_scenario(const std::string& name,
                                         const ScenarioParams& p) {
    for (const auto& s : kScenarios)
        if (name == s.name) return s.make(p);
    return nullptr;
}

// ------------------------------------------------------- closed-loop table

namespace {

/// Common knob mapping shared by every closed-loop recipe.
ClosedLoopParams closed_loop_base(const ScenarioParams& p) {
    ClosedLoopParams cl;
    cl.total = p.count;
    cl.read_size = p.read_size;
    cl.write_size = p.write_size;
    cl.seed = p.seed;
    return cl;
}

ClosedLoopParams make_closedloop(const ScenarioParams& p) {
    // Moderate load: the pool keeps the cluster busy without saturating
    // it, so latency tracks service time rather than queueing.
    ClosedLoopParams cl = closed_loop_base(p);
    cl.clients = 8;
    cl.outstanding = 4;
    cl.think_time = 0.01;
    return cl;
}

ClosedLoopParams make_closedloop_saturated(const ScenarioParams& p) {
    // Saturation: a large pool with near-zero think time drives offered
    // concurrency far past the service capacity — the regime where
    // admission control and tail quantiles earn their keep.
    ClosedLoopParams cl = closed_loop_base(p);
    cl.clients = 32;
    cl.outstanding = 4;
    cl.think_time = 0.001;
    cl.read_fraction = 0.9;
    return cl;
}

struct ClosedLoopEntry {
    const char* name;
    const char* description;
    ClosedLoopParams (*make)(const ScenarioParams&);
};

const ClosedLoopEntry kClosedLoopScenarios[] = {
    {"closedloop",
     "closed-loop pool at moderate load (8 clients x 4 outstanding, 10ms think)",
     &make_closedloop},
    {"closedloop-saturated",
     "closed-loop pool driving saturation (32 clients x 4 outstanding, 1ms think)",
     &make_closedloop_saturated},
};

}  // namespace

const std::vector<std::string>& closed_loop_scenario_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto& s : kClosedLoopScenarios) v.emplace_back(s.name);
        return v;
    }();
    return names;
}

bool is_closed_loop_scenario(const std::string& name) {
    for (const auto& s : kClosedLoopScenarios)
        if (name == s.name) return true;
    return false;
}

std::string describe_closed_loop_scenario(const std::string& name) {
    for (const auto& s : kClosedLoopScenarios)
        if (name == s.name) return s.description;
    return "";
}

ClosedLoopParams make_closed_loop_scenario(const std::string& name,
                                           const ScenarioParams& p) {
    for (const auto& s : kClosedLoopScenarios)
        if (name == s.name) return s.make(p);
    throw std::invalid_argument("make_closed_loop_scenario: unknown scenario '" +
                                name + "'");
}

}  // namespace kooza::workloads
