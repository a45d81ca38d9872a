// Synthetic requests — the output of every model's generator and the
// input of the replayer. One SyntheticRequest carries the per-subsystem
// features the paper's Table 2 compares, plus the phase order (structure)
// that only structure-aware models fill in.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "gfs/phase.hpp"
#include "trace/features.hpp"
#include "trace/records.hpp"

namespace kooza::core {

/// A request's phase order: a handle into one process-wide, append-only
/// table of interned orders, as trace::SpanName is for span names. Each
/// entry holds the phase names and their gfs::Phase ids (kUnknown for a
/// name gfs::kPhaseNames lacks). Building one from names interns them
/// (one lock and one lookup), so a model interns each order once and
/// hands out copies. Entries never move or change, so copying, comparing
/// and reading a handle take no lock. Equal orders share an entry, so ==
/// compares handles. The table only grows, with the distinct orders the
/// process built.
class PhaseOrder {
public:
    PhaseOrder() noexcept : entry_(&kEmpty) {}  ///< the empty order
    PhaseOrder(std::initializer_list<std::string_view> names);
    explicit PhaseOrder(std::span<const std::string> names);

    using const_iterator = std::vector<std::string>::const_iterator;
    /// The names in order, as `const std::string&`.
    [[nodiscard]] const_iterator begin() const noexcept { return entry_->names.begin(); }
    [[nodiscard]] const_iterator end() const noexcept { return entry_->names.end(); }
    [[nodiscard]] std::size_t size() const noexcept { return entry_->names.size(); }
    [[nodiscard]] bool empty() const noexcept { return entry_->names.empty(); }
    /// The gfs::Phase of each name, in order.
    [[nodiscard]] std::span<const gfs::Phase> ids() const noexcept { return entry_->ids; }

    friend bool operator==(PhaseOrder a, PhaseOrder b) noexcept {
        return a.entry_ == b.entry_;
    }

private:
    struct Entry {
        std::vector<std::string> names;
        std::vector<gfs::Phase> ids;

        friend bool operator<(const Entry& a, const Entry& b) { return a.names < b.names; }
    };
    static inline const Entry kEmpty{};
    [[nodiscard]] static const Entry* intern(std::vector<std::string> names);

    const Entry* entry_;
};

struct SyntheticRequest {
    double time = 0.0;  ///< absolute arrival time
    trace::IoType type = trace::IoType::kRead;

    // Subsystem features (Table 2 columns).
    std::uint64_t network_bytes = 0;
    double cpu_busy_seconds = 0.0;  ///< replayed as CPU work
    std::uint64_t memory_bytes = 0;
    trace::IoType memory_type = trace::IoType::kRead;
    std::uint32_t bank = 0;
    std::uint64_t storage_bytes = 0;
    trace::IoType storage_type = trace::IoType::kRead;
    std::uint64_t lbn = 0;

    /// Phase order for structured replay (empty for models without time
    /// dependencies — the replayer then stresses subsystems in parallel).
    PhaseOrder phases;

    /// Which server executes the request in a multi-server replay
    /// (taken modulo the replayer's server count).
    std::uint32_t server = 0;
};
static_assert(std::is_trivially_copyable_v<SyntheticRequest>);

/// A generated workload plus provenance.
struct SyntheticWorkload {
    std::string model_name;
    std::vector<SyntheticRequest> requests;

    [[nodiscard]] bool empty() const noexcept { return requests.empty(); }
};

/// Project synthetic requests onto the same feature rows real traces
/// produce, so the validator compares like with like. (Latency is zero
/// until the workload has been replayed.)
[[nodiscard]] std::vector<trace::RequestFeatures> to_features(
    const SyntheticWorkload& w);

}  // namespace kooza::core
