// Tests for the hardware device models: disk mechanics, CPU pool, banked
// memory, links and the incast-capable switch port.
#include <gtest/gtest.h>

#include "hw/cpu.hpp"
#include "hw/disk.hpp"
#include "hw/memory.hpp"
#include "hw/network.hpp"
#include "hw/power.hpp"
#include "obs/metrics.hpp"
#include "trace/sink.hpp"
#include "sim/engine.hpp"

namespace {

using namespace kooza::hw;
using kooza::sim::Engine;
using kooza::trace::IoType;
using kooza::trace::NetworkRecord;
using kooza::trace::MemorySink;
using kooza::trace::TraceSet;

TEST(DiskModel, SequentialFasterThanRandom) {
    DiskParams p;
    const double seq = disk_service_time(p, 1000, 1000, 65536);
    const double rnd = disk_service_time(p, 0, p.lbn_count / 2, 65536);
    EXPECT_LT(seq, rnd);
    // Sequential is pure transfer.
    EXPECT_NEAR(seq, 65536.0 / p.transfer_rate, 1e-12);
}

TEST(DiskModel, SeekGrowsWithDistance) {
    DiskParams p;
    const double near = disk_service_time(p, 0, p.lbn_count / 100, 4096);
    const double far = disk_service_time(p, 0, p.lbn_count - 1, 4096);
    EXPECT_LT(near, far);
    EXPECT_THROW((void)disk_service_time(p, 0, p.lbn_count, 4096), std::invalid_argument);
}

TEST(DiskModel, LargerTransfersTakeLonger) {
    DiskParams p;
    EXPECT_LT(disk_service_time(p, 0, 1000, 4096), disk_service_time(p, 0, 1000, 1 << 20));
}

TEST(Disk, EmitsStorageRecords) {
    Engine eng;
    TraceSet sink;
    MemorySink msink(sink);
    Disk disk(eng, DiskParams{}, &msink);
    double latency = -1.0;
    disk.io(42, 5000, 65536, IoType::kRead, [&] { latency = eng.now(); });
    eng.run();
    ASSERT_EQ(sink.storage.size(), 1u);
    EXPECT_EQ(sink.storage[0].request_id, 42u);
    EXPECT_EQ(sink.storage[0].lbn, 5000u);
    EXPECT_EQ(sink.storage[0].size_bytes, 65536u);
    EXPECT_GT(latency, 0.0);
    EXPECT_DOUBLE_EQ(sink.storage[0].latency, latency);
    EXPECT_EQ(disk.completed(), 1u);
}

TEST(Disk, QueueSerializesIos) {
    Engine eng;
    Disk disk(eng, DiskParams{}, nullptr);
    std::vector<double> done;
    disk.io(1, 0, 1 << 20, IoType::kRead, [&] { done.push_back(eng.now()); });
    disk.io(2, 1 << 20, 1 << 20, IoType::kRead, [&] { done.push_back(eng.now()); });
    eng.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GT(done[1], done[0]);  // second waits for first
}

TEST(Disk, HeadMovesWithIo) {
    Engine eng;
    Disk disk(eng, DiskParams{}, nullptr);
    disk.io(1, 9999, 512, IoType::kWrite, [] {});
    eng.run();
    EXPECT_EQ(disk.head_position(), 10000u);  // lbn + 1 block
}

TEST(Disk, InvalidLbnThrows) {
    Engine eng;
    Disk disk(eng, DiskParams{}, nullptr);
    EXPECT_THROW(disk.io(1, DiskParams{}.lbn_count, 512, IoType::kRead, [] {}),
                 std::invalid_argument);
}

TEST(Cpu, WorkForBytesLinear) {
    Engine eng;
    CpuParams p{.cores = 1, .per_byte_cost = 1e-9, .per_request_overhead = 1e-5};
    Cpu cpu(eng, p, nullptr);
    EXPECT_NEAR(cpu.work_for_bytes(1000), 1e-5 + 1e-6, 1e-15);
}

TEST(Cpu, EmitsCpuRecords) {
    Engine eng;
    TraceSet sink;
    MemorySink msink(sink);
    Cpu cpu(eng, CpuParams{}, &msink);
    cpu.execute(7, 0.005, [] {});
    eng.run();
    ASSERT_EQ(sink.cpu.size(), 1u);
    EXPECT_EQ(sink.cpu[0].request_id, 7u);
    EXPECT_DOUBLE_EQ(sink.cpu[0].busy_seconds, 0.005);
    EXPECT_NEAR(sink.cpu[0].utilization, 1.0, 1e-9);  // uncontended burst
}

TEST(Cpu, CoresRunInParallel) {
    Engine eng;
    Cpu cpu(eng, CpuParams{.cores = 2}, nullptr);
    std::vector<double> done;
    for (int i = 0; i < 2; ++i)
        cpu.execute(std::uint64_t(i), 1.0, [&] { done.push_back(eng.now()); });
    eng.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(done[0], 1.0);
    EXPECT_DOUBLE_EQ(done[1], 1.0);  // both cores busy simultaneously
}

TEST(Cpu, ExcessWorkQueues) {
    Engine eng;
    TraceSet sink;
    MemorySink msink(sink);
    Cpu cpu(eng, CpuParams{.cores = 1}, &msink);
    cpu.execute(1, 1.0, [] {});
    cpu.execute(2, 1.0, [] {});
    eng.run();
    EXPECT_DOUBLE_EQ(eng.now(), 2.0);
    // Second burst spent half its window queued.
    EXPECT_NEAR(sink.cpu[1].utilization, 0.5, 1e-9);
    EXPECT_THROW(cpu.execute(3, -1.0, [] {}), std::invalid_argument);
}

TEST(Memory, BanksOperateInParallel) {
    Engine eng;
    Memory mem(eng, MemoryParams{.banks = 2}, nullptr);
    std::vector<double> done;
    mem.access(1, 0, 1 << 20, IoType::kRead, [&] { done.push_back(eng.now()); });
    mem.access(2, 1, 1 << 20, IoType::kRead, [&] { done.push_back(eng.now()); });
    eng.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(done[0], done[1]);  // different banks: no conflict
}

TEST(Memory, SameBankConflicts) {
    Engine eng;
    Memory mem(eng, MemoryParams{.banks = 2}, nullptr);
    std::vector<double> done;
    mem.access(1, 0, 1 << 20, IoType::kRead, [&] { done.push_back(eng.now()); });
    mem.access(2, 0, 1 << 20, IoType::kRead, [&] { done.push_back(eng.now()); });
    eng.run();
    EXPECT_GT(done[1], done[0]);
}

TEST(Memory, EmitsRecordsAndValidates) {
    Engine eng;
    TraceSet sink;
    MemorySink msink(sink);
    Memory mem(eng, MemoryParams{.banks = 4}, &msink);
    mem.access(9, 3, 4096, IoType::kWrite, [] {});
    eng.run();
    ASSERT_EQ(sink.memory.size(), 1u);
    EXPECT_EQ(sink.memory[0].bank, 3u);
    EXPECT_EQ(sink.memory[0].type, IoType::kWrite);
    EXPECT_THROW(mem.access(9, 4, 4096, IoType::kRead, [] {}),
                 std::invalid_argument);
    EXPECT_EQ(mem.bank_of(0), 0u);
    EXPECT_EQ(mem.bank_of(4096), 1u);
}

TEST(SwitchPort, DeliversWholePayload) {
    Engine eng;
    TraceSet sink;
    MemorySink msink(sink);
    SwitchPort port(eng, SwitchParams{}, NetworkRecord::Direction::kRx, &msink);
    double latency = 0.0;
    port.transfer(5, 1 << 20, [&] { latency = eng.now(); });
    eng.run();
    EXPECT_GT(latency, 0.0);
    ASSERT_EQ(sink.network.size(), 1u);
    EXPECT_EQ(sink.network[0].size_bytes, 1u << 20);
    EXPECT_EQ(port.drops(), 0u);
}

TEST(SwitchPort, ControlTransfersNotRecorded) {
    Engine eng;
    TraceSet sink;
    MemorySink msink(sink);
    SwitchPort port(eng, SwitchParams{}, NetworkRecord::Direction::kRx, &msink);
    port.transfer(5, 512, [] {}, /*record=*/false);
    eng.run();
    EXPECT_TRUE(sink.network.empty());
    EXPECT_EQ(port.completed(), 1u);
}

TEST(SwitchPort, IncastCausesDropsAndCollapse) {
    // Many concurrent senders into a tiny buffer: drops and timeouts.
    auto run_incast = [](int senders, std::uint32_t buffer) {
        Engine eng;
        SwitchParams p;
        p.buffer_frames = buffer;
        p.retry_timeout = 0.05;
        SwitchPort port(eng, p, NetworkRecord::Direction::kRx, nullptr);
        std::vector<double> latencies;
        for (int i = 0; i < senders; ++i)
            port.transfer(std::uint64_t(i), 256 << 10,
                          [&] { latencies.push_back(eng.now()); });
        eng.run();
        double worst = 0.0;
        for (double l : latencies) worst = std::max(worst, l);
        return std::make_pair(port.drops(), worst);
    };
    const auto [drops_few, worst_few] = run_incast(2, 8);
    const auto [drops_many, worst_many] = run_incast(64, 8);
    EXPECT_EQ(drops_few, 0u);
    EXPECT_GT(drops_many, 0u);
    EXPECT_GT(worst_many, worst_few * 2.0);
}

TEST(SwitchPort, CountersIncludeTransfersThatExhaustRetries) {
    // Six 64 KiB transfers at once into a one-frame buffer with no
    // retries: four are dropped and give up. The network counters must
    // count them too, as completed() and the written records do.
    Engine eng;
    TraceSet sink;
    MemorySink msink(sink);
    SwitchParams p;
    p.buffer_frames = 1;
    p.max_retries = 0;
    p.retry_timeout = 0.01;
    SwitchPort port(eng, p, NetworkRecord::Direction::kRx, &msink);
    auto& transfers = kooza::obs::counter("hw.net.transfers_total");
    auto& bytes = kooza::obs::counter("hw.net.bytes_total", kooza::obs::Unit::kBytes);
    const auto transfers_before = transfers.value();
    const auto bytes_before = bytes.value();
    int done = 0;
    for (int i = 0; i < 6; ++i) port.transfer(std::uint64_t(i), 64 << 10, [&] { ++done; });
    eng.run();
    EXPECT_EQ(done, 6);
    EXPECT_EQ(port.timeouts(), 4u);
    ASSERT_EQ(sink.network.size(), 6u);
    std::uint64_t recorded = 0;
    for (const auto& r : sink.network) recorded += r.size_bytes;
    EXPECT_EQ(transfers.value() - transfers_before, port.completed());
    EXPECT_EQ(bytes.value() - bytes_before, recorded);
}

TEST(Power, IdleFloorAndLoadProportionality) {
    PowerModel pm({.idle_watts = 100.0, .cpu_dynamic_watts = 80.0,
                   .disk_active_watts = 10.0, .memory_active_watts = 10.0});
    EXPECT_DOUBLE_EQ(pm.power(0.0, 0.0), 100.0);
    EXPECT_DOUBLE_EQ(pm.power(1.0, 1.0, 1.0), 200.0);
    EXPECT_DOUBLE_EQ(pm.power(0.5, 0.0), 140.0);
    // Utilizations clamp to [0,1].
    EXPECT_DOUBLE_EQ(pm.power(5.0, -1.0), 180.0);
}

TEST(Power, EnergyIntegratesSamples) {
    PowerModel pm({.idle_watts = 100.0, .cpu_dynamic_watts = 100.0,
                   .disk_active_watts = 0.0, .memory_active_watts = 0.0});
    const std::vector<UtilizationSample> samples{
        {1.0, 0.0, 0.0, 0.0},   // 1 s at idle-known-at-sample (100 W)
        {2.0, 1.0, 0.0, 0.0},   // 1 s at full CPU (200 W)
    };
    EXPECT_DOUBLE_EQ(pm.energy(samples), 100.0 + 200.0);
    EXPECT_DOUBLE_EQ(pm.energy({}), 0.0);
    const std::vector<UtilizationSample> bad{{2.0, 0, 0, 0}, {1.0, 0, 0, 0}};
    EXPECT_THROW((void)pm.energy(bad), std::invalid_argument);
}

TEST(Power, ConstantWindowEnergy) {
    PowerModel pm;
    EXPECT_DOUBLE_EQ(pm.energy(10.0, 0.0, 0.0), 10.0 * pm.params().idle_watts);
    EXPECT_GT(pm.energy(10.0, 0.8, 0.5), pm.energy(10.0, 0.1, 0.1));
    EXPECT_THROW((void)pm.energy(-1.0, 0.0, 0.0), std::invalid_argument);
}

TEST(Power, Validation) {
    EXPECT_THROW(PowerModel({.idle_watts = -1.0}), std::invalid_argument);
}

TEST(SwitchPort, ParamValidation) {
    Engine eng;
    SwitchParams bad;
    bad.mtu = 0;
    EXPECT_THROW(SwitchPort(eng, bad), std::invalid_argument);
    SwitchParams bad2;
    bad2.buffer_frames = 0;
    EXPECT_THROW(SwitchPort(eng, bad2), std::invalid_argument);
}

}  // namespace
