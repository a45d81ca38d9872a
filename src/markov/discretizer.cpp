#include "markov/discretizer.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace kooza::markov {

double Discretizer::sample_within(std::size_t state, sim::Rng&) const {
    return representative(state);
}

EqualWidthDiscretizer::EqualWidthDiscretizer(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins) {
    if (!(hi > lo)) throw std::invalid_argument("EqualWidthDiscretizer: hi must exceed lo");
    if (bins == 0) throw std::invalid_argument("EqualWidthDiscretizer: bins must be >= 1");
}

std::size_t EqualWidthDiscretizer::state_of(double x) const {
    if (x <= lo_) return 0;
    if (x >= hi_) return bins_ - 1;
    return std::min(std::size_t((x - lo_) / (hi_ - lo_) * double(bins_)), bins_ - 1);
}

double EqualWidthDiscretizer::representative(std::size_t state) const {
    if (state >= bins_) throw std::out_of_range("EqualWidthDiscretizer::representative");
    const double w = (hi_ - lo_) / double(bins_);
    return lo_ + (double(state) + 0.5) * w;
}

double EqualWidthDiscretizer::sample_within(std::size_t state, sim::Rng& rng) const {
    if (state >= bins_) throw std::out_of_range("EqualWidthDiscretizer::sample_within");
    const double w = (hi_ - lo_) / double(bins_);
    return rng.uniform(lo_ + double(state) * w, lo_ + double(state + 1) * w);
}

std::string EqualWidthDiscretizer::describe() const {
    std::ostringstream os;
    os << "equal-width[" << lo_ << ", " << hi_ << ") x" << bins_;
    return os.str();
}

LbnRangeDiscretizer::LbnRangeDiscretizer(std::uint64_t lbn_count, std::size_t ranges)
    : lbn_count_(lbn_count), ranges_(ranges) {
    if (lbn_count == 0) throw std::invalid_argument("LbnRangeDiscretizer: lbn_count 0");
    if (ranges == 0) throw std::invalid_argument("LbnRangeDiscretizer: ranges 0");
    if (std::uint64_t(ranges) > lbn_count)
        throw std::invalid_argument("LbnRangeDiscretizer: more ranges than LBNs");
}

std::size_t LbnRangeDiscretizer::state_of(double lbn) const {
    if (lbn < 0.0) return 0;
    if (lbn >= double(lbn_count_)) return ranges_ - 1;
    return std::min(std::size_t(lbn / double(lbn_count_) * double(ranges_)), ranges_ - 1);
}

double LbnRangeDiscretizer::representative(std::size_t state) const {
    if (state >= ranges_) throw std::out_of_range("LbnRangeDiscretizer::representative");
    const double w = double(lbn_count_) / double(ranges_);
    return std::floor((double(state) + 0.5) * w);
}

double LbnRangeDiscretizer::sample_within(std::size_t state, sim::Rng& rng) const {
    if (state >= ranges_) throw std::out_of_range("LbnRangeDiscretizer::sample_within");
    const double w = double(lbn_count_) / double(ranges_);
    const double lo = double(state) * w;
    const double hi = std::min(double(lbn_count_), double(state + 1) * w);
    return std::floor(rng.uniform(lo, hi));
}

std::string LbnRangeDiscretizer::describe() const {
    std::ostringstream os;
    os << "lbn-ranges x" << ranges_ << " over " << lbn_count_ << " LBNs";
    return os.str();
}

BankDiscretizer::BankDiscretizer(std::size_t banks) : banks_(banks) {
    if (banks == 0) throw std::invalid_argument("BankDiscretizer: banks must be >= 1");
}

std::size_t BankDiscretizer::state_of(double bank) const {
    if (bank < 0.0) return 0;
    const auto b = std::size_t(bank);
    return std::min(b, banks_ - 1);
}

double BankDiscretizer::representative(std::size_t state) const {
    if (state >= banks_) throw std::out_of_range("BankDiscretizer::representative");
    return double(state);
}

std::string BankDiscretizer::describe() const {
    std::ostringstream os;
    os << "banks x" << banks_;
    return os.str();
}

std::string UtilizationDiscretizer::describe() const {
    std::ostringstream os;
    os << "cpu-util x" << n_states();
    return os.str();
}

std::vector<std::size_t> discretize(const Discretizer& d, std::span<const double> xs) {
    std::vector<std::size_t> out;
    out.reserve(xs.size());
    for (double x : xs) out.push_back(d.state_of(x));
    return out;
}

}  // namespace kooza::markov
