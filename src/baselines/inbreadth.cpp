#include "baselines/inbreadth.hpp"

#include <sstream>

namespace kooza::baselines {

InBreadthModel InBreadthModel::train(const trace::TraceSet& ts,
                                     core::TrainerConfig cfg) {
    // Strip spans: the in-breadth pipeline never deployed request tracing.
    trace::TraceSet no_spans = ts;
    no_spans.spans.clear();
    cfg.fallback_structure = true;  // trainer inserts a placeholder queue
    if (cfg.workload_name == "workload") cfg.workload_name = "in-breadth";
    core::Trainer trainer(cfg);
    return InBreadthModel(trainer.train(no_spans));
}

core::SyntheticWorkload InBreadthModel::generate(std::size_t count,
                                                 sim::Rng& rng) const {
    core::Generator gen(model_);
    core::SyntheticWorkload w = gen.generate(count, rng);
    w.model_name = "in-breadth:" + model_.workload_name();
    // No time dependencies: drop the placeholder phase lists.
    for (auto& r : w.requests) r.phases = {};
    return w;
}

std::size_t InBreadthModel::parameter_count() const {
    // The placeholder structure queues are not part of this model.
    std::size_t n = model_.parameter_count();
    if (model_.has_reads()) n -= model_.reads().structure.parameter_count();
    if (model_.has_writes()) n -= model_.writes().structure.parameter_count();
    return n;
}

std::string InBreadthModel::describe() const {
    std::ostringstream os;
    os << "InBreadthModel (4 subsystem models, no time dependencies), ~"
       << parameter_count() << " params";
    return os.str();
}

}  // namespace kooza::baselines
