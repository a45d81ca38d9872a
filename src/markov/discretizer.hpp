// State-space discretizers: map continuous subsystem observations onto
// Markov state ids.
//
// The paper's storage model states are Logical Block-Number ranges, the
// memory model's are memory banks, the CPU model's are utilization levels
// (Figure 2). These classes define those mappings and their inverses
// (representative value per state) so synthetic generation can emit
// concrete LBNs/banks/utilizations again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace kooza::markov {

/// Maps a scalar observation to a state id in [0, n_states) and back.
class Discretizer {
public:
    virtual ~Discretizer() = default;
    [[nodiscard]] virtual std::size_t n_states() const noexcept = 0;
    [[nodiscard]] virtual std::size_t state_of(double x) const = 0;
    /// Deterministic representative (e.g. bin center) of a state.
    [[nodiscard]] virtual double representative(std::size_t state) const = 0;
    /// Random value within the state's range (defaults to representative).
    [[nodiscard]] virtual double sample_within(std::size_t state, sim::Rng& rng) const;
    [[nodiscard]] virtual std::string describe() const = 0;
    [[nodiscard]] virtual std::unique_ptr<Discretizer> clone() const = 0;
};

/// Equal-width bins over [lo, hi); values outside clamp to the edge bins.
class EqualWidthDiscretizer : public Discretizer {
public:
    EqualWidthDiscretizer(double lo, double hi, std::size_t bins);
    [[nodiscard]] std::size_t n_states() const noexcept override { return bins_; }
    [[nodiscard]] std::size_t state_of(double x) const override;
    [[nodiscard]] double representative(std::size_t state) const override;
    [[nodiscard]] double sample_within(std::size_t state, sim::Rng& rng) const override;
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Discretizer> clone() const override {
        return std::make_unique<EqualWidthDiscretizer>(*this);
    }
    [[nodiscard]] double lo() const noexcept { return lo_; }
    [[nodiscard]] double hi() const noexcept { return hi_; }

private:
    double lo_, hi_;
    std::size_t bins_;
};

/// LBN-range states for the storage model: the disk's logical block space
/// [0, lbn_count) split into `ranges` contiguous ranges (paper Fig. 2:
/// "LBN 1..LBN 4"). sample_within draws a uniform LBN in the range.
class LbnRangeDiscretizer : public Discretizer {
public:
    LbnRangeDiscretizer(std::uint64_t lbn_count, std::size_t ranges);
    [[nodiscard]] std::size_t n_states() const noexcept override { return ranges_; }
    [[nodiscard]] std::size_t state_of(double lbn) const override;
    [[nodiscard]] double representative(std::size_t state) const override;
    [[nodiscard]] double sample_within(std::size_t state, sim::Rng& rng) const override;
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Discretizer> clone() const override {
        return std::make_unique<LbnRangeDiscretizer>(*this);
    }
    [[nodiscard]] std::uint64_t lbn_count() const noexcept { return lbn_count_; }

private:
    std::uint64_t lbn_count_;
    std::size_t ranges_;
};

/// Memory-bank states (paper Fig. 2: "Bank 1..Bank 4"): the identity map
/// over bank ids 0..banks-1.
class BankDiscretizer : public Discretizer {
public:
    explicit BankDiscretizer(std::size_t banks);
    [[nodiscard]] std::size_t n_states() const noexcept override { return banks_; }
    [[nodiscard]] std::size_t state_of(double bank) const override;
    [[nodiscard]] double representative(std::size_t state) const override;
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Discretizer> clone() const override {
        return std::make_unique<BankDiscretizer>(*this);
    }

private:
    std::size_t banks_;
};

/// CPU-utilization levels (paper Fig. 2: "CPU Util 1..4"): equal-width
/// buckets over [0, 1].
class UtilizationDiscretizer : public EqualWidthDiscretizer {
public:
    explicit UtilizationDiscretizer(std::size_t levels)
        : EqualWidthDiscretizer(0.0, 1.0, levels) {}
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Discretizer> clone() const override {
        return std::make_unique<UtilizationDiscretizer>(*this);
    }
};

/// Discretize a whole observation sequence.
[[nodiscard]] std::vector<std::size_t> discretize(const Discretizer& d,
                                                  std::span<const double> xs);

}  // namespace kooza::markov
