// Tests for the discrete-event engine, RNG, and FCFS resources.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"

namespace {

using kooza::sim::Engine;
using kooza::sim::Resource;
using kooza::sim::Rng;

TEST(Engine, StartsAtTimeZero) {
    Engine eng;
    EXPECT_EQ(eng.now(), 0.0);
    EXPECT_TRUE(eng.empty());
}

TEST(Engine, ExecutesEventsInTimeOrder) {
    Engine eng;
    std::vector<int> order;
    eng.schedule_at(2.0, [&] { order.push_back(2); });
    eng.schedule_at(1.0, [&] { order.push_back(1); });
    eng.schedule_at(3.0, [&] { order.push_back(3); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 3.0);
}

TEST(Engine, TiesBreakFifo) {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) eng.schedule_at(1.0, [&, i] { order.push_back(i); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
    Engine eng;
    double fired_at = -1.0;
    eng.schedule_at(5.0, [&] {
        eng.schedule_after(2.5, [&] { fired_at = eng.now(); });
    });
    eng.run();
    EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, RejectsPastEvents) {
    Engine eng;
    eng.schedule_at(5.0, [] {});
    eng.run();
    EXPECT_THROW(eng.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Engine, RejectsNegativeDelay) {
    Engine eng;
    EXPECT_THROW(eng.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(Engine, RejectsEmptyAction) {
    Engine eng;
    EXPECT_THROW(eng.schedule_at(1.0, std::function<void()>{}), std::invalid_argument);
}

TEST(Engine, RunReturnsEventCount) {
    Engine eng;
    for (int i = 0; i < 7; ++i) eng.schedule_at(double(i), [] {});
    EXPECT_EQ(eng.run(), 7u);
    EXPECT_EQ(eng.executed(), 7u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
    Engine eng;
    int fired = 0;
    for (int i = 1; i <= 10; ++i) eng.schedule_at(double(i), [&] { ++fired; });
    eng.run_until(5.0);
    EXPECT_EQ(fired, 5);
    EXPECT_DOUBLE_EQ(eng.now(), 5.0);
    eng.run();
    EXPECT_EQ(fired, 10);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
    Engine eng;
    eng.run_until(42.0);
    EXPECT_DOUBLE_EQ(eng.now(), 42.0);
}

TEST(Engine, StopHaltsExecution) {
    Engine eng;
    int fired = 0;
    eng.schedule_at(1.0, [&] {
        ++fired;
        eng.stop();
    });
    eng.schedule_at(2.0, [&] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.pending(), 1u);
}

TEST(Engine, StepExecutesExactlyOne) {
    Engine eng;
    int fired = 0;
    eng.schedule_at(1.0, [&] { ++fired; });
    eng.schedule_at(2.0, [&] { ++fired; });
    EXPECT_TRUE(eng.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eng.step());
    EXPECT_FALSE(eng.step());
}

TEST(Engine, EventsCanScheduleMoreEvents) {
    Engine eng;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 100) eng.schedule_after(0.1, recurse);
    };
    eng.schedule_at(0.0, recurse);
    eng.run();
    EXPECT_EQ(depth, 100);
}

TEST(Rng, DeterministicForSeed) {
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(7), b(8);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        if (a.uniform() != b.uniform()) any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST(Rng, ForkIsIndependent) {
    Rng a(7);
    Rng child = a.fork();
    // Child stream shouldn't replicate the parent's next values.
    Rng a2(7);
    (void)a2.fork();
    double parent_next = a.uniform();
    double fresh_parent_next = a2.uniform();
    EXPECT_DOUBLE_EQ(parent_next, fresh_parent_next);  // fork is deterministic
    EXPECT_NE(child.uniform(), parent_next);
}

TEST(Rng, UniformRange) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 3.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, UniformIntInclusive) {
    Rng rng(1);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
    Rng rng(2);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ParetoSupport) {
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
    Rng rng(4);
    const double w[] = {0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(w)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_NEAR(double(counts[2]) / double(counts[1]), 3.0, 0.3);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
    Rng rng(5);
    EXPECT_THROW(rng.weighted_index({}), std::invalid_argument);
    const double zeros[] = {0.0, 0.0};
    EXPECT_THROW(rng.weighted_index(zeros), std::invalid_argument);
    const double neg[] = {1.0, -1.0};
    EXPECT_THROW(rng.weighted_index(neg), std::invalid_argument);
}

TEST(Resource, GrantsUpToCapacity) {
    Engine eng;
    Resource res(eng, 2);
    int granted = 0;
    res.acquire([&] { ++granted; });
    res.acquire([&] { ++granted; });
    res.acquire([&] { ++granted; });
    EXPECT_EQ(granted, 2);
    EXPECT_EQ(res.in_use(), 2u);
    EXPECT_EQ(res.queue_length(), 1u);
}

TEST(Resource, ReleaseGrantsNextWaiterFifo) {
    Engine eng;
    Resource res(eng, 1);
    std::vector<int> order;
    res.acquire([&] { order.push_back(0); });
    res.acquire([&] { order.push_back(1); });
    res.acquire([&] { order.push_back(2); });
    res.release();
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    res.release();
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Resource, ReleaseWithoutHoldThrows) {
    Engine eng;
    Resource res(eng, 1);
    EXPECT_THROW(res.release(), std::logic_error);
}

TEST(Resource, ZeroCapacityRejected) {
    Engine eng;
    EXPECT_THROW(Resource(eng, 0), std::invalid_argument);
}

TEST(Resource, UtilizationTracksBusyTime) {
    Engine eng;
    Resource res(eng, 1);
    res.acquire([&] { eng.schedule_at(4.0, [&] { res.release(); }); });
    eng.run();
    eng.run_until(8.0);
    // Busy 4 s out of 8 s.
    EXPECT_NEAR(res.utilization(), 0.5, 1e-9);
}

TEST(Resource, QueueingDelaysSerializeWork) {
    Engine eng;
    Resource res(eng, 1);
    std::vector<double> completions;
    auto job = [&] {
        res.acquire([&] {
            eng.schedule_after(1.0, [&] {
                completions.push_back(eng.now());
                res.release();
            });
        });
    };
    eng.schedule_at(0.0, job);
    eng.schedule_at(0.0, job);
    eng.schedule_at(0.0, job);
    eng.run();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_NEAR(completions[0], 1.0, 1e-9);
    EXPECT_NEAR(completions[1], 2.0, 1e-9);
    EXPECT_NEAR(completions[2], 3.0, 1e-9);
}

TEST(Resource, CompetingAcquireKeepsWaiterAtHead) {
    // release() hands the slot to the queue head in a zero-delay event; an
    // acquire in between takes the slot, and the handed-off waiter goes
    // back to the head of the queue, ahead of everyone still waiting.
    // Every holder lets go one second after its grant.
    std::vector<char> order;
    const auto holder = [&order](Engine& eng, Resource& res, char name) {
        return [&order, &eng, &res, name] {
            order.push_back(name);
            eng.schedule_after(1.0, [&res] { res.release(); });
        };
    };
    {
        // X holds the slot; A and B wait. X's release and C's acquire
        // share one event: C, then A, then B.
        Engine eng;
        Resource res(eng, 1);
        res.acquire([] {});  // X
        res.acquire(holder(eng, res, 'A'));
        res.acquire(holder(eng, res, 'B'));
        eng.schedule_at(1.0, [&] {
            res.release();
            res.acquire(holder(eng, res, 'C'));
            // A is handed off: only B still counts as queued.
            EXPECT_EQ(res.in_use(), 1u);
            EXPECT_EQ(res.queue_length(), 1u);
        });
        eng.run();
        EXPECT_EQ(order, (std::vector<char>{'C', 'A', 'B'}));
        EXPECT_EQ(res.in_use(), 0u);
        EXPECT_EQ(res.total_grants(), 4u);
    }
    order.clear();
    {
        // Two holders let go in one event, handing the slots to A and B;
        // C's acquire in the same event takes one. A gets the other, and
        // B goes back to the head, ahead of D.
        Engine eng;
        Resource res(eng, 2);
        res.acquire([] {});  // X1
        res.acquire([] {});  // X2
        res.acquire(holder(eng, res, 'A'));
        res.acquire(holder(eng, res, 'B'));
        res.acquire(holder(eng, res, 'D'));
        eng.schedule_at(1.0, [&] {
            res.release();
            res.release();
            res.acquire(holder(eng, res, 'C'));
            EXPECT_EQ(res.queue_length(), 1u);
        });
        eng.run();
        EXPECT_EQ(order, (std::vector<char>{'C', 'A', 'B', 'D'}));
        EXPECT_EQ(res.in_use(), 0u);
        EXPECT_EQ(res.total_grants(), 6u);
    }
}

TEST(Resource, TotalGrantsCounts) {
    Engine eng;
    Resource res(eng, 1);
    res.acquire([] {});
    res.release();
    eng.run();
    res.acquire([] {});
    res.release();
    eng.run();
    EXPECT_EQ(res.total_grants(), 2u);
}

}  // namespace
