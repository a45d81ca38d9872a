// Tests for analytic queueing formulas and arrival processes.
#include <gtest/gtest.h>

#include <numeric>

#include "queueing/analytic.hpp"
#include "queueing/arrival.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace kooza::queueing;
using kooza::sim::Rng;

TEST(Mm1, KnownValues) {
    // lambda=8, mu=10: rho=0.8, W=1/(mu-lambda)=0.5, L=4.
    const auto m = mm1(8.0, 10.0);
    EXPECT_NEAR(m.utilization, 0.8, 1e-12);
    EXPECT_NEAR(m.mean_response, 0.5, 1e-12);
    EXPECT_NEAR(m.mean_jobs, 4.0, 1e-9);
    EXPECT_NEAR(m.mean_wait, 0.4, 1e-12);
    EXPECT_NEAR(m.mean_queue_length, 3.2, 1e-9);
}

TEST(Mm1, UnstableRejected) {
    EXPECT_THROW((void)mm1(10.0, 10.0), std::invalid_argument);
    EXPECT_THROW((void)mm1(-1.0, 10.0), std::invalid_argument);
}

TEST(ErlangC, SingleServerEqualsRho) {
    // For c=1, P(wait) = rho.
    EXPECT_NEAR(erlang_c(6.0, 10.0, 1), 0.6, 1e-12);
}

TEST(ErlangC, MoreServersLessWaiting) {
    const double p2 = erlang_c(12.0, 10.0, 2);
    const double p4 = erlang_c(12.0, 10.0, 4);
    EXPECT_GT(p2, p4);
    EXPECT_THROW((void)erlang_c(30.0, 10.0, 2), std::invalid_argument);
}

TEST(Mmc, ReducesToMm1) {
    const auto a = mm1(8.0, 10.0);
    const auto b = mmc(8.0, 10.0, 1);
    EXPECT_NEAR(a.mean_response, b.mean_response, 1e-9);
    EXPECT_NEAR(a.mean_wait, b.mean_wait, 1e-9);
}

TEST(Mg1, ExponentialServiceMatchesMm1) {
    // M/G/1 with scv=1 is M/M/1.
    const auto a = mm1(8.0, 10.0);
    const auto b = mg1(8.0, 0.1, 1.0);
    EXPECT_NEAR(a.mean_wait, b.mean_wait, 1e-9);
}

TEST(Mg1, DeterministicServiceHalvesWait) {
    const auto exp_svc = mg1(8.0, 0.1, 1.0);
    const auto det_svc = mg1(8.0, 0.1, 0.0);
    EXPECT_NEAR(det_svc.mean_wait, exp_svc.mean_wait / 2.0, 1e-9);
    EXPECT_THROW((void)mg1(8.0, 0.2, 1.0), std::invalid_argument);  // rho = 1.6
}

TEST(PoissonArrivals, MeanRate) {
    PoissonArrivals p(50.0);
    EXPECT_DOUBLE_EQ(p.mean_rate(), 50.0);
    Rng rng(1);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += p.next_interarrival(rng);
    EXPECT_NEAR(double(n) / sum, 50.0, 1.5);
    EXPECT_THROW(PoissonArrivals(0.0), std::invalid_argument);
}

TEST(MmppArrivals, MeanRateFormula) {
    // pi0 = s1/(s0+s1) = 2/3: rate = (2/3)*10 + (1/3)*100 = 40.
    MmppArrivals m(10.0, 100.0, 1.0, 2.0);
    EXPECT_NEAR(m.mean_rate(), 40.0, 1e-12);
}

TEST(MmppArrivals, EmpiricalRateAndBurstiness) {
    MmppArrivals m(10.0, 200.0, 0.5, 2.0);
    Rng rng(2);
    std::vector<double> gaps(30000);
    for (auto& g : gaps) g = m.next_interarrival(rng);
    const double rate = double(gaps.size()) / std::accumulate(gaps.begin(), gaps.end(), 0.0);
    EXPECT_NEAR(rate, m.mean_rate(), m.mean_rate() * 0.1);
    // Burstier than Poisson: gap CV > 1.
    const auto s = kooza::stats::summarize(gaps);
    EXPECT_GT(s.cv(), 1.2);
}

TEST(DeterministicArrivals, ConstantGaps) {
    DeterministicArrivals d(4.0);
    Rng rng(3);
    EXPECT_DOUBLE_EQ(d.next_interarrival(rng), 0.25);
    EXPECT_DOUBLE_EQ(d.mean_rate(), 4.0);
}

TEST(TraceArrivals, CyclesThroughGaps) {
    TraceArrivals t({1.0, 2.0, 3.0});
    Rng rng(4);
    EXPECT_DOUBLE_EQ(t.next_interarrival(rng), 1.0);
    EXPECT_DOUBLE_EQ(t.next_interarrival(rng), 2.0);
    EXPECT_DOUBLE_EQ(t.next_interarrival(rng), 3.0);
    EXPECT_DOUBLE_EQ(t.next_interarrival(rng), 1.0);  // wraps
    t.reset();
    EXPECT_DOUBLE_EQ(t.next_interarrival(rng), 1.0);
    EXPECT_NEAR(t.mean_rate(), 0.5, 1e-12);
}

TEST(TraceArrivals, FromTimestamps) {
    const std::vector<double> ts{5.0, 1.0, 3.0};
    auto t = TraceArrivals::from_timestamps(ts);
    Rng rng(5);
    EXPECT_DOUBLE_EQ(t.next_interarrival(rng), 2.0);
    EXPECT_DOUBLE_EQ(t.next_interarrival(rng), 2.0);
    EXPECT_THROW(TraceArrivals(std::vector<double>{}), std::invalid_argument);
}

TEST(ArrivalProcess, CloneIsIndependent) {
    TraceArrivals t({1.0, 2.0});
    Rng rng(6);
    (void)t.next_interarrival(rng);
    auto c = t.clone();
    // Clone starts from the *current* cursor state of the original...
    // actually clone copies state; advancing one must not advance the other.
    const double a = t.next_interarrival(rng);
    const double b = c->next_interarrival(rng);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(RateEnvelope, DiurnalStaysWithinBand) {
    kooza::queueing::DiurnalEnvelope env(40.0, 0.8, 60.0);
    for (double t = 0.0; t < 240.0; t += 0.7) {
        EXPECT_GT(env.rate_at(t), 0.0);
        EXPECT_LE(env.rate_at(t), env.peak_rate() + 1e-12);
    }
    EXPECT_DOUBLE_EQ(env.peak_rate(), 40.0 * 1.8);
    EXPECT_DOUBLE_EQ(env.average_rate(), 40.0);
    // Quarter period with zero phase is the sine peak.
    EXPECT_NEAR(env.rate_at(15.0), env.peak_rate(), 1e-9);
    EXPECT_THROW(kooza::queueing::DiurnalEnvelope(40.0, 1.0, 60.0),
                 std::invalid_argument);
    EXPECT_THROW(kooza::queueing::DiurnalEnvelope(0.0, 0.5, 60.0),
                 std::invalid_argument);
}

TEST(RateEnvelope, SpikeWindowAndAverage) {
    kooza::queueing::SpikeEnvelope env(10.0, 8.0, 30.0, 3.0);
    EXPECT_DOUBLE_EQ(env.rate_at(1.0), 80.0);    // inside the spike window
    EXPECT_DOUBLE_EQ(env.rate_at(5.0), 10.0);    // outside
    EXPECT_DOUBLE_EQ(env.rate_at(31.0), 80.0);   // window recurs each period
    EXPECT_DOUBLE_EQ(env.peak_rate(), 80.0);
    // Duty cycle 0.1: average = base * (1 + 7 * 0.1).
    EXPECT_DOUBLE_EQ(env.average_rate(), 17.0);
    EXPECT_THROW(kooza::queueing::SpikeEnvelope(10.0, 0.5, 30.0, 3.0),
                 std::invalid_argument);
    EXPECT_THROW(kooza::queueing::SpikeEnvelope(10.0, 8.0, 30.0, 31.0),
                 std::invalid_argument);
}

TEST(ModulatedArrivals, DeterministicAndResettable) {
    using kooza::queueing::DiurnalEnvelope;
    using kooza::queueing::ModulatedArrivals;
    auto make = [] {
        return ModulatedArrivals(std::make_unique<DiurnalEnvelope>(40.0, 0.8, 60.0));
    };
    auto a = make();
    auto b = make();
    kooza::sim::Rng ra(9), rb(9);
    for (int i = 0; i < 200; ++i)
        EXPECT_DOUBLE_EQ(a.next_interarrival(ra), b.next_interarrival(rb)) << i;
    // reset() rewinds the envelope clock: the same RNG reproduces the run.
    a.reset();
    kooza::sim::Rng rc(9);
    auto c = make();
    kooza::sim::Rng rd(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(a.next_interarrival(rc), c.next_interarrival(rd)) << i;
}

TEST(ModulatedArrivals, ThinningTracksAverageRate) {
    using kooza::queueing::ModulatedArrivals;
    ModulatedArrivals arr(
        std::make_unique<kooza::queueing::SpikeEnvelope>(50.0, 4.0, 10.0, 1.0));
    EXPECT_DOUBLE_EQ(arr.mean_rate(), 65.0);
    kooza::sim::Rng rng(17);
    const int n = 20000;
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += arr.next_interarrival(rng);
    const double empirical = double(n) / total;
    // Lewis-Shedler thinning should land near the envelope's average rate.
    EXPECT_NEAR(empirical, arr.mean_rate(), 0.05 * arr.mean_rate());
    // Cloning preserves the envelope (and the current clock).
    auto clone = arr.clone();
    EXPECT_EQ(clone->describe(), arr.describe());
}

}  // namespace
