// Event-core contracts: dispatch-order properties of the engine's
// (at, seq) heap against a stable sort and a reference priority queue,
// engine control-flow edge cases (stop inside run_until, daemon-only
// queues, deadlines before the first event, re-running after stop),
// non-finite timestamp rejection, and the EventFn small-buffer callable.
//
// The order-property tests sweep timestamp distributions that stress a
// scheduler's tie-breaking and key range — uniform, bimodal-skewed,
// all-equal (FIFO among ties), astronomically spread, and a narrow
// cluster followed by a wide spread — asserting the one contract every
// distribution must uphold: strict (at, seq) dispatch order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/eventfn.hpp"

namespace {

using kooza::sim::Engine;
using kooza::sim::EventArena;
using kooza::sim::EventFn;

// splitmix64: a deterministic stream with no library dependency.
std::uint64_t next_u64(std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}
double next_unit(std::uint64_t& s) { return double(next_u64(s) >> 11) * 0x1.0p-53; }

// ---------------------------------------------------------------------------
// Dispatch-order property: schedule a batch of timestamps, run, and
// require the exact order a stable (at, insertion-order) sort prescribes.
// ---------------------------------------------------------------------------

/// Indices of `ts` in a stable (at, insertion-order) sort.
std::vector<std::size_t> stable_order(const std::vector<double>& ts) {
    std::vector<std::size_t> want(ts.size());
    for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
    std::stable_sort(want.begin(), want.end(),
                     [&](std::size_t a, std::size_t b) { return ts[a] < ts[b]; });
    return want;
}

void expect_dispatch_order(const std::vector<double>& ts) {
    Engine eng;
    std::vector<std::size_t> fired;
    for (std::size_t i = 0; i < ts.size(); ++i)
        eng.schedule_at(ts[i], [&fired, i] { fired.push_back(i); });
    eng.run();
    ASSERT_EQ(fired, stable_order(ts));
}

TEST(EngineOrder, UniformTimestamps) {
    std::uint64_t s = 1;
    std::vector<double> ts(20000);
    for (auto& t : ts) t = next_unit(s);
    expect_dispatch_order(ts);
}

TEST(EngineOrder, BimodalSkewedTimestamps) {
    // 90% in [0, 0.1ms), 10% in [0, 100ms).
    std::uint64_t s = 2;
    std::vector<double> ts(20000);
    for (auto& t : ts) {
        const double u = next_unit(s);
        t = u < 0.9 ? next_unit(s) * 0.1e-3 : next_unit(s) * 100e-3;
    }
    expect_dispatch_order(ts);
}

TEST(EngineOrder, AllEqualTimestampsKeepFifoOrder) {
    // Degenerate: every event at one instant, so seq alone decides.
    std::vector<double> ts(5000, 1.0);
    expect_dispatch_order(ts);
}

TEST(EngineOrder, AstronomicalRangeKeepsOrder) {
    // Microseconds interleaved with times beyond 1e19 seconds.
    std::uint64_t s = 3;
    std::vector<double> ts(1000);
    for (std::size_t i = 0; i < ts.size(); ++i)
        ts[i] = (i % 2) ? next_unit(s) * 1e-6 : 1e19 + next_unit(s) * 1e19;
    expect_dispatch_order(ts);
}

TEST(EngineOrder, NarrowClusterThenWideSpreadKeepsOrder) {
    // Fill with a dense microsecond-scale cluster, drain it, then feed
    // timestamps spread over hundreds of seconds into the same engine.
    // Every batch-two time is later than every batch-one time, so the
    // whole run must follow one stable sort of all the timestamps.
    Engine eng;
    std::vector<double> ts;
    std::vector<std::size_t> fired;
    std::uint64_t s = 4;
    for (const auto& [offset, span] : {std::pair{0.0, 1e-3}, std::pair{1.0, 200.0}}) {
        for (int i = 0; i < 5000; ++i) {
            const std::size_t k = ts.size();
            ts.push_back(offset + next_unit(s) * span);
            eng.schedule_at(ts.back(), [&fired, k] { fired.push_back(k); });
        }
        eng.run();
    }
    ASSERT_EQ(fired, stable_order(ts));
}

TEST(EngineOrder, InterleavedHoldModelMatchesReferenceQueue) {
    // Hold model (every dispatch schedules one successor): pushes and
    // pops interleave at constant depth. The reference is a plain
    // std::priority_queue over (at, seq).
    struct Ref {
        using Item = std::pair<double, std::uint64_t>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> q;
    };

    const std::uint64_t kSeed = 5;
    const int kDepth = 64;
    const int kEvents = 20000;

    std::vector<double> ref_order;
    {
        Ref ref;
        std::uint64_t s = kSeed, seq = 0, remaining = kEvents;
        for (int i = 0; i < kDepth; ++i) ref.q.push({next_unit(s), seq++});
        while (!ref.q.empty()) {
            auto [at, sq] = ref.q.top();
            ref.q.pop();
            ref_order.push_back(at);
            if (remaining > 0) {
                --remaining;
                ref.q.push({at + next_unit(s), seq++});
            }
        }
    }

    std::vector<double> eng_order;
    {
        Engine eng;
        std::uint64_t s = kSeed, remaining = kEvents;
        struct Actor {
            Engine* eng;
            std::uint64_t* s;
            std::uint64_t* remaining;
            std::vector<double>* order;
            void fire() const {
                order->push_back(eng->now());
                if (*remaining > 0) {
                    --*remaining;
                    Actor self = *this;
                    eng->schedule_after(next_unit(*s), [self] { self.fire(); });
                }
            }
        } actor{&eng, &s, &remaining, &eng_order};
        for (int i = 0; i < kDepth; ++i)
            eng.schedule_at(next_unit(s), [actor] { actor.fire(); });
        eng.run();
    }

    ASSERT_EQ(eng_order, ref_order);
}

// ---------------------------------------------------------------------------
// Control-flow edges.
// ---------------------------------------------------------------------------

TEST(EngineControl, StopInsideEventDuringRunUntilKeepsClock) {
    Engine eng;
    int fired = 0;
    eng.schedule_at(1.0, [&] {
        ++fired;
        eng.stop();
    });
    eng.schedule_at(2.0, [&] { ++fired; });
    const auto n = eng.run_until(10.0);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    // stop() mid-run means the clock stays at the last event, not the
    // deadline.
    EXPECT_DOUBLE_EQ(eng.now(), 1.0);
    EXPECT_EQ(eng.pending(), 1u);
}

TEST(EngineControl, ReRunAfterStopResumes) {
    Engine eng;
    int fired = 0;
    eng.schedule_at(1.0, [&] {
        ++fired;
        eng.stop();
    });
    eng.schedule_at(2.0, [&] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 1);
    eng.run();  // stop() is not sticky: a fresh run drains the rest
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eng.empty());
}

TEST(EngineControl, DaemonOnlyQueueReturnsImmediately) {
    Engine eng;
    int fired = 0;
    eng.schedule_daemon_at(1.0, [&] { ++fired; });
    eng.schedule_daemon_at(2.0, [&] { ++fired; });
    EXPECT_EQ(eng.run(), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_DOUBLE_EQ(eng.now(), 0.0);
    EXPECT_EQ(eng.pending(), 2u);  // daemons stay queued
}

TEST(EngineControl, RunUntilDeadlineBeforeFirstEvent) {
    Engine eng;
    int fired = 0;
    eng.schedule_at(5.0, [&] { ++fired; });
    EXPECT_EQ(eng.run_until(2.0), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_DOUBLE_EQ(eng.now(), 2.0);
    EXPECT_EQ(eng.pending(), 1u);
    EXPECT_EQ(eng.run_until(5.0), 1u);  // boundary events still execute
    EXPECT_EQ(fired, 1);
}

TEST(EngineControl, PendingSeesJustScheduledEvents) {
    // Events scheduled out of time order are visible to
    // pending()/empty()/step() at once and dispatch in time order.
    Engine eng;
    std::vector<int> order;
    eng.schedule_at(2.0, [&] { order.push_back(2); });
    eng.schedule_at(1.0, [&] { order.push_back(1); });
    EXPECT_EQ(eng.pending(), 2u);
    EXPECT_FALSE(eng.empty());
    EXPECT_TRUE(eng.step());
    EXPECT_TRUE(eng.step());
    EXPECT_FALSE(eng.step());
    EXPECT_TRUE(eng.empty());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EngineControl, FrontSlotEventIsPending) {
    // The earliest pending event waits outside the heap; pending(),
    // empty(), run_until's deadline and the destructor all see it.
    Engine eng;
    std::vector<int> order;
    eng.schedule_at(5.0, [&] { order.push_back(5); });
    eng.schedule_at(1.0, [&] {
        order.push_back(1);
        eng.schedule_at(2.0, [&] { order.push_back(2); });  // earlier than 5.0
    });
    EXPECT_EQ(eng.pending(), 2u);
    EXPECT_EQ(eng.run_until(1.5), 1u);
    EXPECT_EQ(eng.pending(), 2u);
    EXPECT_FALSE(eng.empty());
    EXPECT_EQ(eng.run(), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 5}));

    const auto token = std::make_shared<int>(0);
    {
        Engine unrun;
        unrun.schedule_at(1.0, [token] {});
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);  // the slot's callback was destroyed
}

// ---------------------------------------------------------------------------
// Non-finite timestamp rejection.
// ---------------------------------------------------------------------------

TEST(EngineReject, NonFiniteTimesThrow) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    Engine eng;
    EXPECT_THROW(eng.schedule_at(nan, [] {}), std::invalid_argument);
    EXPECT_THROW(eng.schedule_at(inf, [] {}), std::invalid_argument);
    EXPECT_THROW(eng.schedule_at(-inf, [] {}), std::invalid_argument);
    EXPECT_THROW(eng.schedule_after(nan, [] {}), std::invalid_argument);
    EXPECT_THROW(eng.schedule_after(inf, [] {}), std::invalid_argument);
    EXPECT_THROW(eng.schedule_daemon_at(nan, [] {}), std::invalid_argument);
    EXPECT_THROW(eng.schedule_daemon_at(inf, [] {}), std::invalid_argument);
    EXPECT_TRUE(eng.empty());  // nothing leaked into the queue
    EXPECT_EQ(eng.run(), 0u);
}

// ---------------------------------------------------------------------------
// EventFn: the 48-byte inline callable.
// ---------------------------------------------------------------------------

TEST(EventFnTest, InvokesInlineCapture) {
    int hits = 0;
    EventFn fn([&hits] { ++hits; });
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(EventFnTest, MoveTransfersCallable) {
    int hits = 0;
    EventFn a([&hits] { ++hits; });
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);
    EventFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
}

TEST(EventFnTest, FitsOnlyCapturesOfOwnerAndSlot) {
    // The rule EventFn's constructor asserts: an (owner, slot) capture
    // fits, and state beyond 48 bytes belongs in a sim::Slots record.
    struct Owner {};
    Owner* owner = nullptr;
    std::uint32_t slot = 0;
    const auto small = [owner, slot] { (void)owner, (void)slot; };
    static_assert(kooza::sim::kFitsEventFn<decltype(small)>);
    struct Big {
        char payload[96];
    };
    const Big big{};
    const auto oversized = [big] { (void)big; };
    static_assert(sizeof(oversized) > kooza::sim::kEventFnInlineBytes);
    static_assert(!kooza::sim::kFitsEventFn<decltype(oversized)>);
    struct alignas(2 * alignof(std::max_align_t)) Overaligned {
        char c;
    };
    static_assert(sizeof(Overaligned) <= kooza::sim::kEventFnInlineBytes);
    static_assert(!kooza::sim::kFitsEventFn<Overaligned>);
    struct ThrowingMove {
        ThrowingMove() = default;
        ThrowingMove(ThrowingMove&&) noexcept(false) {}
    };
    static_assert(!kooza::sim::kFitsEventFn<ThrowingMove>);
}

TEST(EventFnTest, ArenaReusesFreedBlocks) {
    static_assert(EventArena::kBlockBytes == sizeof(EventFn));
    EventArena arena;
    void* p1 = arena.allocate();
    void* p2 = arena.allocate();
    EXPECT_NE(p1, p2);
    EXPECT_EQ(arena.slab_count(), 1u);
    arena.deallocate(p1);
    void* p3 = arena.allocate();
    EXPECT_EQ(p1, p3);  // LIFO free list hands the block straight back
    arena.deallocate(p3);
    arena.deallocate(p2);
}

}  // namespace
