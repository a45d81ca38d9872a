// kooza_obs — deterministic metrics registry (GWP-style self-observation).
//
// The paper's measurement half (Section 2.2, GWP/Dapper) is about watching
// the fleet; this module watches the *pipeline itself*: every subsystem
// (sim engine, device models, GFS servers, KOOZA trainer/replayer)
// publishes counters, gauges and fixed-bucket log2 histograms into one
// process-wide registry, exported as JSON/CSV snapshots.
//
// Determinism discipline (same contract as kooza_par's shard_seed): all
// accumulation is integer-valued and sharded per thread, and snapshots
// merge the shards in fixed pool order — integer addition is associative
// and commutative, so a fixed-seed run exports a byte-identical snapshot
// at any thread count. The one escape hatch is wall-clock timers (train
// wall time etc.): metrics created with `wall = true` are tagged in the
// snapshot and excluded from deterministic exports.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kooza::obs {

/// Unit of a metric's value (sums and histogram samples).
enum class Unit { kCount, kBytes, kNanoseconds };
[[nodiscard]] const char* to_string(Unit u) noexcept;

/// Number of per-thread accumulation shards per metric. Threads hash onto
/// shards round-robin; merging always walks shards 0..kShards-1.
inline constexpr std::size_t kShards = 8;

namespace detail {
/// Shard slot of the calling thread (stable for the thread's lifetime).
[[nodiscard]] std::size_t shard_index() noexcept;
}  // namespace detail

/// Monotonic counter. add() is wait-free (one relaxed atomic add on the
/// calling thread's shard); value() merges shards in pool order.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        slots_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        std::uint64_t total = 0;
        for (const auto& s : slots_) total += s.v.load(std::memory_order_relaxed);
        return total;
    }
    void reset() noexcept {
        for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
    }

private:
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> v{0};
    };
    std::array<Slot, kShards> slots_{};
};

/// Point-in-time value plus the maximum ever set. Gauges are meant for
/// single-threaded (simulation-side) state like "servers currently down";
/// concurrent set() keeps the max exact but makes value() last-writer-wins.
class Gauge {
public:
    void set(double v) noexcept {
        value_.store(v, std::memory_order_relaxed);
        double cur = max_.load(std::memory_order_relaxed);
        while (v > cur &&
               !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    void add(double delta) noexcept { set(value() + delta); }
    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double max() const noexcept {
        return max_.load(std::memory_order_relaxed);
    }
    void reset() noexcept {
        value_.store(0.0, std::memory_order_relaxed);
        max_.store(0.0, std::memory_order_relaxed);
    }

private:
    std::atomic<double> value_{0.0};
    std::atomic<double> max_{0.0};
};

/// Fixed-bucket log2 histogram over unsigned 64-bit samples. Bucket 0
/// holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b). Counts and the
/// running sum are integers, so merges are order-independent.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 65;  ///< 0 plus one per bit width

    /// Bucket index of `v` (0 for 0, else bit width of v).
    [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
        return std::size_t(std::bit_width(v));
    }

    void observe(std::uint64_t v) noexcept {
        auto& sh = shards_[detail::shard_index()];
        sh.count.fetch_add(1, std::memory_order_relaxed);
        sh.sum.fetch_add(v, std::memory_order_relaxed);
        sh.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    }
    /// Record a duration in seconds as integer nanoseconds — the
    /// deterministic representation of simulated time. Negatives and NaN
    /// clamp to 0; 2^64 ns (about 584 years) and more, infinity included,
    /// saturate to UINT64_MAX (bucket 64) instead of an undefined cast.
    void observe_seconds(double s) noexcept {
        const double ns = s * 1e9;
        if (!(ns > 0.0)) return observe(0);
        constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
        observe(ns < 0x1p64 ? std::uint64_t(ns) : kMax);
    }

    [[nodiscard]] std::uint64_t count() const noexcept {
        std::uint64_t n = 0;
        for (const auto& sh : shards_) n += sh.count.load(std::memory_order_relaxed);
        return n;
    }
    [[nodiscard]] std::uint64_t sum() const noexcept {
        std::uint64_t n = 0;
        for (const auto& sh : shards_) n += sh.sum.load(std::memory_order_relaxed);
        return n;
    }
    [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
        std::uint64_t n = 0;
        for (const auto& sh : shards_)
            n += sh.buckets[i].load(std::memory_order_relaxed);
        return n;
    }
    void reset() noexcept {
        for (auto& sh : shards_) {
            sh.count.store(0, std::memory_order_relaxed);
            sh.sum.store(0, std::memory_order_relaxed);
            for (auto& b : sh.buckets) b.store(0, std::memory_order_relaxed);
        }
    }

private:
    struct alignas(64) Shard {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    };
    std::array<Shard, kShards> shards_{};
};

/// RAII timer recording an elapsed duration into a histogram (as integer
/// nanoseconds). Simulated-clock-aware: pass a clock callback reading the
/// owning sim::Engine's now() for deterministic timings, or use the
/// wall-clock constructor for real elapsed time (the target histogram
/// should then be registered with wall = true). Scopes nest freely — each
/// records its own span independently.
class TimerScope {
public:
    using Clock = std::function<double()>;  ///< seconds

    TimerScope(Histogram& h, Clock sim_clock)
        : h_(h), clock_(std::move(sim_clock)), sim_start_(clock_()) {}
    explicit TimerScope(Histogram& h)
        : h_(h), wall_start_(std::chrono::steady_clock::now()) {}
    ~TimerScope() {
        if (clock_) {
            h_.observe_seconds(clock_() - sim_start_);
        } else {
            const auto dt = std::chrono::steady_clock::now() - wall_start_;
            h_.observe(std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
        }
    }
    TimerScope(const TimerScope&) = delete;
    TimerScope& operator=(const TimerScope&) = delete;

private:
    Histogram& h_;
    Clock clock_;
    double sim_start_ = 0.0;
    std::chrono::steady_clock::time_point wall_start_{};
};

/// One exported metric (see export.hpp for serialization).
struct MetricSnapshot {
    enum class Kind { kCounter, kGauge, kHistogram };

    std::string name;
    Kind kind = Kind::kCounter;
    Unit unit = Unit::kCount;
    bool wall = false;  ///< wall-clock-derived: excluded from deterministic exports

    std::uint64_t value = 0;                     ///< counter
    double gauge_value = 0.0, gauge_max = 0.0;   ///< gauge
    std::uint64_t count = 0, sum = 0;            ///< histogram
    /// Sparse non-empty buckets as (index, count), ascending index.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

    /// Histogram mean in the metric's unit (0 when empty).
    [[nodiscard]] double mean() const noexcept {
        return count == 0 ? 0.0 : double(sum) / double(count);
    }
};

/// Deterministically ordered (by name) view of a registry.
struct Snapshot {
    std::vector<MetricSnapshot> metrics;

    /// Metric by exact name, nullptr when absent.
    [[nodiscard]] const MetricSnapshot* find(std::string_view name) const noexcept;
};

/// Named metric store. Creation is mutex-guarded and idempotent; returned
/// references stay valid for the registry's lifetime (reset() zeroes
/// values but never invalidates references). Instrumented classes should
/// fetch their metrics once and cache the references — lookups take a
/// lock, updates do not.
class Registry {
public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Process-wide registry used by all built-in instrumentation.
    [[nodiscard]] static Registry& global();

    /// Find-or-create. Throws std::logic_error if `name` already exists
    /// with a different metric kind. The unit/wall tags are fixed by the
    /// first registration.
    Counter& counter(std::string_view name, Unit unit = Unit::kCount);
    Gauge& gauge(std::string_view name, Unit unit = Unit::kCount);
    Histogram& histogram(std::string_view name, Unit unit = Unit::kCount,
                         bool wall = false);

    /// Merged values of every registered metric, sorted by name.
    [[nodiscard]] Snapshot snapshot() const;

    /// Zero every metric's value. Registrations — and outstanding
    /// references — survive, so cached instrumentation stays valid.
    void reset();

    [[nodiscard]] std::size_t size() const;

private:
    struct Entry {
        MetricSnapshot::Kind kind;
        Unit unit = Unit::kCount;
        bool wall = false;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };
    mutable std::mutex mu_;
    std::map<std::string, Entry, std::less<>> entries_;
};

/// Shorthands into Registry::global().
[[nodiscard]] Counter& counter(std::string_view name, Unit unit = Unit::kCount);
[[nodiscard]] Gauge& gauge(std::string_view name, Unit unit = Unit::kCount);
[[nodiscard]] Histogram& histogram(std::string_view name, Unit unit = Unit::kCount,
                                   bool wall = false);

}  // namespace kooza::obs
