#include "core/serialize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "markov/discretizer.hpp"
#include "obs/format.hpp"
#include "stats/empirical.hpp"

namespace kooza::core {

namespace {

constexpr const char* kMagic = "kooza-model";
constexpr const char* kVersion = "v1";

/// A model's text, formatted into a buffer that goes to the stream a
/// block at a time: doubles as %.17g (obs::format_g17), integers as
/// to_chars writes them.
class TextOut {
public:
    explicit TextOut(std::ostream& os) : os_(os) {}
    TextOut(const TextOut&) = delete;
    TextOut& operator=(const TextOut&) = delete;

    TextOut& operator<<(double v) {
        room(obs::kG17BufferBytes);
        pos_ = obs::format_g17(pos_, end(), v).ptr;
        return *this;
    }
    template <std::integral T>
    TextOut& operator<<(T v) {
        room(obs::kG17BufferBytes);
        pos_ = std::to_chars(pos_, end(), v).ptr;
        return *this;
    }
    TextOut& operator<<(char c) {
        room(1);
        *pos_++ = c;
        return *this;
    }
    TextOut& operator<<(std::string_view text) {
        if (text.size() > std::size_t(end() - pos_)) {
            flush();
            if (text.size() > buf_.size()) {
                os_.write(text.data(), std::streamsize(text.size()));
                return *this;
            }
        }
        pos_ = std::copy(text.begin(), text.end(), pos_);
        return *this;
    }

    /// Hand the buffered text to the stream.
    void flush() {
        os_.write(buf_.data(), pos_ - buf_.data());
        pos_ = buf_.data();
    }

private:
    char* end() { return buf_.data() + buf_.size(); }
    /// Flush unless `n` bytes are free; a number needs obs::kG17BufferBytes.
    void room(std::size_t n) {
        if (std::size_t(end() - pos_) < n) flush();
    }

    std::ostream& os_;
    std::array<char, 1 << 14> buf_;
    char* pos_ = buf_.data();
};

/// Defined with load_distribution, below.
void save_distribution(const stats::Distribution& d, TextOut& os);

[[noreturn]] void bad(const std::string& what) {
    throw std::runtime_error("load_model: " + what);
}

std::string next_token(std::istream& is, const char* what) {
    std::string tok;
    if (!(is >> tok)) bad(std::string("unexpected end of input, wanted ") + what);
    return tok;
}

double next_double(std::istream& is, const char* what) {
    const auto tok = next_token(is, what);
    try {
        return std::stod(tok);
    } catch (const std::exception&) {
        bad(std::string("bad number '") + tok + "' for " + what);
    }
}

/// A count: decimal digits only, the whole token, no wrap-around.
std::size_t next_size(std::istream& is, const char* what) {
    const auto tok = next_token(is, what);
    std::size_t n = 0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), n);
    if (ec != std::errc() || end != tok.data() + tok.size())
        bad(std::string("bad count '") + tok + "' for " + what);
    return n;
}

void expect(std::istream& is, const char* keyword) {
    const auto tok = next_token(is, keyword);
    if (tok != keyword) bad("expected '" + std::string(keyword) + "', got '" + tok + "'");
}

// ---- Markov chain ---------------------------------------------------------

void save_chain(const markov::MarkovChain& c, TextOut& os) {
    os << "chain " << c.n_states() << "\ninit";
    for (double p : c.initial()) os << ' ' << p;
    os << "\n";
    for (std::size_t i = 0; i < c.n_states(); ++i) {
        os << "row";
        for (std::size_t j = 0; j < c.n_states(); ++j) os << ' ' << c.transition(i, j);
        os << "\n";
    }
}

markov::MarkovChain load_chain(std::istream& is) {
    expect(is, "chain");
    const std::size_t n = next_size(is, "chain size");
    expect(is, "init");
    // Counts come from the file: grow each vector as its values parse, so
    // a hostile count fails on missing input instead of allocating.
    std::vector<double> init;
    for (std::size_t i = 0; i < n; ++i)
        init.push_back(next_double(is, "initial probability"));
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < n; ++i) {
        expect(is, "row");
        auto& row = rows.emplace_back();
        for (std::size_t j = 0; j < n; ++j)
            row.push_back(next_double(is, "transition probability"));
    }
    return markov::MarkovChain(std::move(rows), std::move(init));
}

// ---- Annotated chain ------------------------------------------------------

void save_annotated(const markov::AnnotatedMarkovChain& m, TextOut& os) {
    save_chain(m.chain(), os);
    const auto names = m.feature_names();
    os << "features " << names.size() << "\n";
    for (std::size_t s = 0; s < m.chain().n_states(); ++s)
        for (const auto& name : names) {
            os << "feature " << s << ' ' << name << ' ';
            save_distribution(m.feature(s, name), os);
        }
}

markov::AnnotatedMarkovChain load_annotated(std::istream& is) {
    auto chain = load_chain(is);
    expect(is, "features");
    const std::size_t n_features = next_size(is, "feature count");
    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>> per_state(
        chain.n_states());
    for (std::size_t s = 0; s < chain.n_states(); ++s)
        for (std::size_t f = 0; f < n_features; ++f) {
            expect(is, "feature");
            const std::size_t state = next_size(is, "feature state");
            if (state >= chain.n_states()) bad("feature state out of range");
            const auto name = next_token(is, "feature name");
            per_state[state][name] = load_distribution(is);
        }
    return markov::AnnotatedMarkovChain::from_parts(std::move(chain),
                                                    std::move(per_state));
}

// ---- Structure queue ------------------------------------------------------

void save_structure(const StructureQueue& q, TextOut& os) {
    const auto names = q.phase_names();
    os << "structure " << q.training_traces() << ' ' << q.variants().size() << ' '
       << names.size() << "\n";
    for (const auto& v : q.variants()) {
        os << "variant " << v.count << ' ' << v.phases.size();
        for (const auto& p : v.phases) os << ' ' << p;
        os << "\n";
    }
    for (const auto& name : names) {
        os << "duration " << name << ' ';
        save_distribution(q.phase_duration(name), os);
    }
}

StructureQueue load_structure(std::istream& is) {
    expect(is, "structure");
    const std::size_t trained = next_size(is, "structure trained count");
    const std::size_t n_variants = next_size(is, "variant count");
    const std::size_t n_durations = next_size(is, "duration count");
    std::vector<StructureQueue::Variant> variants;
    for (std::size_t v = 0; v < n_variants; ++v) {
        expect(is, "variant");
        StructureQueue::Variant var;
        var.count = next_size(is, "variant count");
        const std::size_t len = next_size(is, "variant length");
        for (std::size_t i = 0; i < len; ++i)
            var.phases.push_back(next_token(is, "phase name"));
        variants.push_back(std::move(var));
    }
    std::map<std::string, std::unique_ptr<stats::Distribution>> durations;
    for (std::size_t d = 0; d < n_durations; ++d) {
        expect(is, "duration");
        const auto name = next_token(is, "duration phase");
        durations[name] = load_distribution(is);
    }
    return StructureQueue::from_parts(std::move(variants), std::move(durations),
                                      trained);
}

// ---- Discretizers ---------------------------------------------------------

void save_discretizer(const markov::Discretizer& d, TextOut& os) {
    if (auto* lbn = dynamic_cast<const markov::LbnRangeDiscretizer*>(&d)) {
        os << "states lbn " << lbn->lbn_count() << ' ' << lbn->n_states() << "\n";
    } else if (auto* util = dynamic_cast<const markov::UtilizationDiscretizer*>(&d)) {
        os << "states util " << util->n_states() << "\n";
    } else if (auto* bank = dynamic_cast<const markov::BankDiscretizer*>(&d)) {
        os << "states banks " << bank->n_states() << "\n";
    } else if (auto* eq = dynamic_cast<const markov::EqualWidthDiscretizer*>(&d)) {
        os << "states equal " << eq->lo() << ' ' << eq->hi() << ' ' << eq->n_states()
           << "\n";
    } else {
        throw std::invalid_argument("save_model: unserializable discretizer: " +
                                    d.describe());
    }
}

std::unique_ptr<markov::Discretizer> load_discretizer(std::istream& is) {
    expect(is, "states");
    const auto kind = next_token(is, "discretizer kind");
    if (kind == "lbn") {
        const auto count = std::uint64_t(next_size(is, "lbn count"));
        const auto ranges = next_size(is, "lbn ranges");
        return std::make_unique<markov::LbnRangeDiscretizer>(count, ranges);
    }
    if (kind == "util")
        return std::make_unique<markov::UtilizationDiscretizer>(
            next_size(is, "util levels"));
    if (kind == "banks")
        return std::make_unique<markov::BankDiscretizer>(next_size(is, "banks"));
    if (kind == "equal") {
        const double lo = next_double(is, "equal lo");
        const double hi = next_double(is, "equal hi");
        const std::size_t bins = next_size(is, "equal bins");
        return std::make_unique<markov::EqualWidthDiscretizer>(lo, hi, bins);
    }
    bad("unknown discretizer kind '" + kind + "'");
}

// ---- Arrival processes ----------------------------------------------------

void save_arrivals(const queueing::ArrivalProcess& a, TextOut& os) {
    if (auto* p = dynamic_cast<const queueing::PoissonArrivals*>(&a)) {
        os << "arrivals poisson " << p->mean_rate() << "\n";
    } else if (auto* d = dynamic_cast<const queueing::DeterministicArrivals*>(&a)) {
        os << "arrivals deterministic " << d->mean_rate() << "\n";
    } else if (auto* m = dynamic_cast<const queueing::MmppArrivals*>(&a)) {
        os << "arrivals mmpp " << m->rate(0) << ' ' << m->rate(1) << ' '
           << m->switch_rate(0) << ' ' << m->switch_rate(1) << "\n";
    } else if (auto* t = dynamic_cast<const queueing::TraceArrivals*>(&a)) {
        os << "arrivals trace " << t->gaps().size();
        for (double g : t->gaps()) os << ' ' << g;
        os << "\n";
    } else {
        throw std::invalid_argument("save_model: unserializable arrival process: " +
                                    a.describe());
    }
}

std::unique_ptr<queueing::ArrivalProcess> load_arrivals(std::istream& is) {
    expect(is, "arrivals");
    const auto kind = next_token(is, "arrival kind");
    if (kind == "poisson")
        return std::make_unique<queueing::PoissonArrivals>(
            next_double(is, "poisson rate"));
    if (kind == "deterministic")
        return std::make_unique<queueing::DeterministicArrivals>(
            next_double(is, "deterministic rate"));
    if (kind == "mmpp") {
        const double r0 = next_double(is, "mmpp rate0");
        const double r1 = next_double(is, "mmpp rate1");
        const double s0 = next_double(is, "mmpp switch0");
        const double s1 = next_double(is, "mmpp switch1");
        return std::make_unique<queueing::MmppArrivals>(r0, r1, s0, s1);
    }
    if (kind == "trace") {
        const std::size_t n = next_size(is, "trace gap count");
        std::vector<double> gaps;
        for (std::size_t i = 0; i < n; ++i) gaps.push_back(next_double(is, "trace gap"));
        return std::make_unique<queueing::TraceArrivals>(std::move(gaps));
    }
    bad("unknown arrival kind '" + kind + "'");
}

// ---- Type model -----------------------------------------------------------

void save_type_model(const TypeModel& tm, TextOut& os) {
    save_annotated(tm.storage, os);
    save_annotated(tm.memory, os);
    save_annotated(tm.cpu, os);
    save_structure(tm.structure, os);
}

TypeModel load_type_model(std::istream& is) {
    auto storage = load_annotated(is);
    auto memory = load_annotated(is);
    auto cpu = load_annotated(is);
    auto structure = load_structure(is);
    return TypeModel{std::move(storage), std::move(memory), std::move(cpu),
                     std::move(structure)};
}

}  // namespace

// ---- Distributions ----------------------------------------------------

namespace {

void save_distribution(const stats::Distribution& d, TextOut& os) {
    os << "dist ";
    if (auto* det = dynamic_cast<const stats::Deterministic*>(&d)) {
        os << "deterministic " << det->value();
    } else if (auto* u = dynamic_cast<const stats::Uniform*>(&d)) {
        os << "uniform " << u->lo() << ' ' << u->hi();
    } else if (auto* e = dynamic_cast<const stats::Exponential*>(&d)) {
        os << "exponential " << e->lambda();
    } else if (auto* n = dynamic_cast<const stats::Normal*>(&d)) {
        os << "normal " << n->mean() << ' ' << std::sqrt(n->variance());
    } else if (auto* ln = dynamic_cast<const stats::LogNormal*>(&d)) {
        os << "lognormal " << ln->mu() << ' ' << ln->sigma();
    } else if (auto* p = dynamic_cast<const stats::Pareto*>(&d)) {
        os << "pareto " << p->xm() << ' ' << p->alpha();
    } else if (auto* w = dynamic_cast<const stats::Weibull*>(&d)) {
        os << "weibull " << w->shape() << ' ' << w->scale();
    } else if (auto* g = dynamic_cast<const stats::Gamma*>(&d)) {
        const double mean = g->mean(), var = g->variance();
        os << "gamma " << mean * mean / var << ' ' << var / mean;
    } else if (auto* emp = dynamic_cast<const stats::Empirical*>(&d)) {
        os << "empirical " << emp->size();
        for (double x : emp->sorted()) os << ' ' << x;
    } else {
        throw std::invalid_argument("save_model: unserializable distribution: " +
                                    d.describe());
    }
    os << "\n";
}

}  // namespace

void save_distribution(const stats::Distribution& d, std::ostream& os) {
    TextOut out(os);
    save_distribution(d, out);
    out.flush();
}

std::unique_ptr<stats::Distribution> load_distribution(std::istream& is) {
    expect(is, "dist");
    const auto kind = next_token(is, "distribution family");
    if (kind == "deterministic")
        return std::make_unique<stats::Deterministic>(next_double(is, "value"));
    if (kind == "uniform") {
        const double lo = next_double(is, "lo");
        const double hi = next_double(is, "hi");
        return std::make_unique<stats::Uniform>(lo, hi);
    }
    if (kind == "exponential")
        return std::make_unique<stats::Exponential>(next_double(is, "lambda"));
    if (kind == "normal") {
        const double mean = next_double(is, "mean");
        const double sd = next_double(is, "sd");
        return std::make_unique<stats::Normal>(mean, sd);
    }
    if (kind == "lognormal") {
        const double mu = next_double(is, "mu");
        const double sigma = next_double(is, "sigma");
        return std::make_unique<stats::LogNormal>(mu, sigma);
    }
    if (kind == "pareto") {
        const double xm = next_double(is, "xm");
        const double alpha = next_double(is, "alpha");
        return std::make_unique<stats::Pareto>(xm, alpha);
    }
    if (kind == "weibull") {
        const double shape = next_double(is, "shape");
        const double scale = next_double(is, "scale");
        return std::make_unique<stats::Weibull>(shape, scale);
    }
    if (kind == "gamma") {
        const double shape = next_double(is, "shape");
        const double scale = next_double(is, "scale");
        return std::make_unique<stats::Gamma>(shape, scale);
    }
    if (kind == "empirical") {
        const std::size_t n = next_size(is, "empirical size");
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i)
            xs.push_back(next_double(is, "empirical sample"));
        return std::make_unique<stats::Empirical>(xs);
    }
    bad("unknown distribution family '" + kind + "'");
}

// ---- Model ------------------------------------------------------------

void save_model(const ServerModel& model, std::ostream& stream) {
    TextOut os(stream);
    os << kMagic << ' ' << kVersion << "\n";
    os << "name " << model.workload_name() << "\n";
    os << "read_fraction " << model.read_fraction() << "\n";
    os << "verify_fraction " << model.cpu_verify_fraction() << "\n";
    save_arrivals(model.arrivals(), os);
    save_discretizer(model.lbn_states(), os);
    save_discretizer(model.bank_states(), os);
    save_discretizer(model.util_states(), os);
    os << "types " << (model.has_reads() ? 1 : 0) << ' '
       << (model.has_writes() ? 1 : 0) << "\n";
    if (model.has_reads()) save_type_model(model.reads(), os);
    if (model.has_writes()) save_type_model(model.writes(), os);
    os.flush();
    if (!stream) throw std::runtime_error("save_model: stream write failed");
}

void save_model(const ServerModel& model, const std::filesystem::path& file) {
    std::ofstream os(file);
    if (!os) throw std::runtime_error("save_model: cannot open " + file.string());
    save_model(model, os);
}

ServerModel load_model(std::istream& is) {
    expect(is, kMagic);
    expect(is, kVersion);
    expect(is, "name");
    std::string name;
    std::getline(is >> std::ws, name);
    expect(is, "read_fraction");
    const double read_fraction = next_double(is, "read_fraction");
    expect(is, "verify_fraction");
    const double verify_fraction = next_double(is, "verify_fraction");
    auto arrivals = load_arrivals(is);
    auto lbn = load_discretizer(is);
    auto banks = load_discretizer(is);
    auto util = load_discretizer(is);
    expect(is, "types");
    const bool has_read = next_size(is, "read flag") != 0;
    const bool has_write = next_size(is, "write flag") != 0;
    std::optional<TypeModel> read, write;
    if (has_read) read = load_type_model(is);
    if (has_write) write = load_type_model(is);
    return ServerModel(std::move(name), std::move(arrivals), read_fraction,
                       std::move(read), std::move(write), std::move(lbn),
                       std::move(banks), std::move(util), verify_fraction);
}

ServerModel load_model(const std::filesystem::path& file) {
    std::ifstream is(file);
    if (!is) throw std::runtime_error("load_model: cannot open " + file.string());
    return load_model(is);
}

}  // namespace kooza::core
