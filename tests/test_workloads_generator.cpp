// Conformance suite for the pluggable workload API: every request source
// (profile schedules, scenario mixes, checkpoint/restart, trace replay,
// trained-model replay) honors the ScheduleStream contracts —
// nondecreasing times, permanent exhaustion, same-seed reproducibility —
// and scenario captures stay byte-identical across capture modes and
// thread counts. Runs in the `workloads` tier and under TSan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <tuple>

#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/model_replay.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "core/validator.hpp"
#include "digest.hpp"
#include "par/pool.hpp"
#include "trace/io.hpp"
#include "workloads/closedloop.hpp"
#include "workloads/generator.hpp"
#include "workloads/scenarios.hpp"

namespace {

using namespace kooza;
namespace fs = std::filesystem;

struct ThreadGuard {
    ~ThreadGuard() { par::set_threads(0); }
};

std::vector<gfs::RequestSpec> drain(workloads::ScheduleStream& s) {
    std::vector<gfs::RequestSpec> out;
    while (auto r = s.next()) out.push_back(*r);
    return out;
}

void expect_same_sequence(const std::vector<gfs::RequestSpec>& a,
                          const std::vector<gfs::RequestSpec>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].time, b[i].time) << i;
        EXPECT_EQ(a[i].file, b[i].file) << i;
        EXPECT_EQ(a[i].offset, b[i].offset) << i;
        EXPECT_EQ(a[i].size, b[i].size) << i;
        EXPECT_EQ(a[i].type, b[i].type) << i;
        EXPECT_EQ(a[i].append, b[i].append) << i;
    }
}

workloads::ScenarioParams small_params() {
    workloads::ScenarioParams p;
    p.count = 200;
    p.rate = 40.0;
    p.period = 10.0;
    p.seed = 99;
    return p;
}

TEST(ScenarioLibrary, NamesDescribedAndUnknownRejected) {
    const auto& names = workloads::scenario_names();
    ASSERT_GE(names.size(), 4u);
    for (const auto& n : names) {
        EXPECT_FALSE(workloads::describe_scenario(n).empty()) << n;
        EXPECT_NE(workloads::make_scenario(n, small_params()), nullptr) << n;
    }
    EXPECT_TRUE(workloads::describe_scenario("no-such-scenario").empty());
    EXPECT_EQ(workloads::make_scenario("no-such-scenario", small_params()), nullptr);
}

TEST(GeneratorConformance, SameSeedSameSequence) {
    for (const auto& name : workloads::scenario_names()) {
        auto a = workloads::make_scenario(name, small_params());
        auto b = workloads::make_scenario(name, small_params());
        SCOPED_TRACE(name);
        expect_same_sequence(drain(*a), drain(*b));
    }
}

TEST(GeneratorConformance, NondecreasingTimesAndDeclaredFiles) {
    for (const auto& name : workloads::scenario_names()) {
        auto gen = workloads::make_scenario(name, small_params());
        SCOPED_TRACE(name);
        for (const auto& [file, size] : gen->files()) EXPECT_GT(size, 0u) << file;
        const auto ops = drain(*gen);
        ASSERT_FALSE(ops.empty());
        double last = 0.0;
        for (const auto& op : ops) {
            EXPECT_GE(op.time, last);
            last = op.time;
            EXPECT_LT(op.file, gen->files().size());
            EXPECT_GT(op.size, 0u);
        }
    }
}

TEST(GeneratorConformance, ExhaustionIsPermanent) {
    for (const auto& name : workloads::scenario_names()) {
        auto gen = workloads::make_scenario(name, small_params());
        SCOPED_TRACE(name);
        (void)drain(*gen);
        for (int i = 0; i < 3; ++i) EXPECT_FALSE(gen->next().has_value());
    }
}

TEST(GeneratorConformance, MixHonorsCount) {
    auto gen = workloads::make_scenario("diurnal", small_params());
    EXPECT_EQ(drain(*gen).size(), small_params().count);
}

/// Folds the request fields a capture depends on into `d`, the file by
/// the name it has in its source's list.
void fold_request(testutil::Fnv& d, const gfs::RequestSpec& r,
                  const std::vector<std::pair<std::string, std::uint64_t>>& files) {
    d.add(r.time);
    d.add_bytes(files.at(r.file).first);
    d.add(r.offset);
    d.add(r.size);
    d.add(r.type);
    d.add(r.append);
}

TEST(GeneratorConformance, FilePickDigestPinned) {
    // Pins every arrival, file pick and offset of the Zipf-mix scenarios
    // and of a closed-loop pool against constants recorded from an
    // earlier build: the file picker must make the same draws.
    const std::pair<const char*, std::uint64_t> scenarios[] = {
        {"diurnal", 0xf40146c745e75f59ull},
        {"flashcrowd", 0xe9bda57043918086ull},
        {"tiered", 0x94b3ff30a6226726ull}};
    for (const auto& [name, pinned] : scenarios) {
        auto gen = workloads::make_scenario(name, small_params());
        testutil::Fnv d;
        for (const auto& r : drain(*gen)) fold_request(d, r, gen->files());
        EXPECT_EQ(d.value(), pinned) << name << " 0x" << std::hex << d.value();
    }
    // Zipf-popular, uniform and single-file pools; clients draw round-robin.
    const std::tuple<double, std::size_t, std::uint64_t> pools[] = {
        {0.9, 8, 0x3ca6df4fc4024d5dull},
        {0.0, 8, 0xa9599242b4ffa25bull},
        {0.9, 1, 0x5381ce60735d9903ull}};
    for (const auto& [zipf_s, files, pinned] : pools) {
        workloads::ClosedLoopParams p;
        p.total = 300;
        p.zipf_s = zipf_s;
        p.files = files;
        p.seed = 99;
        workloads::ClosedLoopPool pool(p);
        testutil::Fnv d;
        std::uint32_t client = 0;
        double now = 0.0;
        while (auto r = pool.next(client, now)) {
            fold_request(d, *r, pool.files());
            client = std::uint32_t((client + 1) % p.clients);
            now += 0.001;
        }
        EXPECT_EQ(d.value(), pinned)
            << "zipf " << zipf_s << " files " << files << " 0x" << std::hex << d.value();
    }
}

// ---- ScheduleStream boundary enforcement (bugfix regression) ----------

class BrokenClockStream final : public workloads::ScheduleStream {
public:
    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const override {
        return files_;
    }

protected:
    [[nodiscard]] std::optional<gfs::RequestSpec> poll() override {
        gfs::RequestSpec r;
        r.size = 512;
        r.time = (n_++ == 0) ? 5.0 : 1.0;  // second request steps backwards
        return r;
    }

private:
    std::vector<std::pair<std::string, std::uint64_t>> files_{{"f", 1 << 20}};
    int n_ = 0;
};

class RevivingStream final : public workloads::ScheduleStream {
public:
    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const override {
        return files_;
    }

protected:
    [[nodiscard]] std::optional<gfs::RequestSpec> poll() override {
        if (n_++ == 0) return std::nullopt;  // claims exhaustion ...
        gfs::RequestSpec r;                  // ... then tries to revive
        r.size = 512;
        r.time = double(n_);
        return r;
    }

private:
    std::vector<std::pair<std::string, std::uint64_t>> files_{{"f", 1 << 20}};
    int n_ = 0;
};

TEST(ScheduleStreamContract, TimeRegressionThrowsNamingBothTimestamps) {
    BrokenClockStream s;
    EXPECT_TRUE(s.next().has_value());
    try {
        (void)s.next();
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("nondecreasing"), std::string::npos) << msg;
        EXPECT_NE(msg.find("t=1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("t=5"), std::string::npos) << msg;
    }
}

class StrayFileStream final : public workloads::ScheduleStream {
public:
    [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
    files() const override {
        return files_;
    }

protected:
    [[nodiscard]] std::optional<gfs::RequestSpec> poll() override {
        gfs::RequestSpec r;
        r.size = 512;
        r.time = double(n_);
        r.file = gfs::FileId(n_++ == 0 ? 1 : 2);  // the second is past the list
        return r;
    }

private:
    std::vector<std::pair<std::string, std::uint64_t>> files_{{"f", 1 << 20},
                                                             {"g", 1 << 20}};
    int n_ = 0;
};

TEST(ScheduleStreamContract, FileOutsideTheListThrows) {
    StrayFileStream s;
    EXPECT_TRUE(s.next().has_value());
    try {
        (void)s.next();
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("file 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("2-file list"), std::string::npos) << msg;
    }
}

TEST(ScheduleStreamContract, ExhaustionSticksEvenIfPollRevives) {
    RevivingStream s;
    EXPECT_FALSE(s.next().has_value());
    for (int i = 0; i < 3; ++i) EXPECT_FALSE(s.next().has_value());
}

// ---- Individual generators -------------------------------------------

TEST(ProfileSchedule, GenerateMatchesCaptureSchedule) {
    // Tests that install generate() must capture the same traffic the
    // tools pump through make_capture_schedule, for every profile.
    for (const char* name : {"micro", "oltp", "websearch", "streaming", "logappend"}) {
        SCOPED_TRACE(name);
        core::CaptureOptions co;
        co.profile = name;
        co.count = 400;
        co.rate = 50.0;
        co.seed = 17;
        const auto profile = core::make_profile(name, co.count, co.rate);
        ASSERT_NE(profile, nullptr);
        const auto generated = profile->generate(sim::Rng(co.seed));
        const auto stream = core::make_capture_schedule(co);
        EXPECT_EQ(generated.files, stream->files());
        expect_same_sequence(generated.requests, drain(*stream));
    }
}

TEST(CheckpointGenerator, DalyIntervalAndPhaseShape) {
    workloads::CheckpointGenerator::Params p;
    p.count = 600;
    p.mtti = 20.0;
    p.checkpoint_bytes = 64ull << 20;
    p.bandwidth = 1e9;
    p.ranks = 4;
    p.segment = 4ull << 20;
    workloads::CheckpointGenerator gen(p, sim::Rng(3));

    // shard = 16 MB/rank, delta = shard/bandwidth, tau = sqrt(2 d M) - d.
    const double delta = double(16ull << 20) / 1e9;
    EXPECT_NEAR(gen.optimal_interval(),
                std::max(delta, std::sqrt(2.0 * delta * p.mtti) - delta), 1e-12);

    ASSERT_EQ(gen.files().size(), p.ranks);
    const std::uint64_t shard = gen.files()[0].second;
    EXPECT_EQ(shard, 16ull << 20);

    const auto ops = drain(gen);
    ASSERT_EQ(ops.size(), p.count);
    bool saw_read = false;
    for (const auto& op : ops) {
        EXPECT_EQ(op.size, p.segment);
        EXPECT_LE(op.offset + op.size, shard);
        if (op.type == trace::IoType::kRead) saw_read = true;
        // Restart reads can only follow a completed checkpoint.
        if (!saw_read) {
            EXPECT_EQ(op.type, trace::IoType::kWrite);
        }
    }
    // With MTTI = 20s and tau ~ 1.1s many failures land in 600 ops.
    EXPECT_TRUE(saw_read);
}

TEST(TraceReplayGenerator, ReplaysRequestLogInArrivalOrder) {
    const auto dir = fs::temp_directory_path() / "kooza_gen_replay_src";
    fs::remove_all(dir);
    core::CaptureOptions co;
    co.profile = "micro";
    co.count = 120;
    co.seed = 21;
    co.out_dir = dir.string();
    co.format = trace::Format::kBinary;
    const auto cap = core::run_capture(co);
    ASSERT_GT(cap.traces.requests.size(), 0u);

    workloads::TraceReplayGenerator gen(dir);
    EXPECT_EQ(gen.total_ops(), cap.traces.requests.size());
    const auto ops = drain(gen);
    ASSERT_EQ(ops.size(), cap.traces.requests.size());
    // Identical on a second open: replay is deterministic.
    workloads::TraceReplayGenerator again(dir);
    expect_same_sequence(ops, drain(again));

    EXPECT_THROW(workloads::TraceReplayGenerator(dir / "missing"), std::exception);
    fs::remove_all(dir);
}

TEST(TraceReplayGenerator, RejectsRequestsAboveTheSizeLimit) {
    // A replayed row's bytes size the replay file, and the master reserves
    // one chunk location per 64 MiB of it: a 2^62-byte row must fail by
    // name before anything is sized from it.
    const auto dir = fs::temp_directory_path() / "kooza_gen_replay_huge";
    constexpr std::uint64_t kLimit = workloads::TraceReplayGenerator::kMaxRequestBytes;
    const auto write_row = [&dir](std::uint64_t bytes) {
        fs::remove_all(dir);
        trace::TraceSet ts;
        ts.requests.push_back({17, trace::IoType::kRead, 0.5, 0.75, bytes});
        trace::write_traces(ts, dir, trace::Format::kCsv);
    };
    write_row(kLimit);
    EXPECT_EQ(workloads::TraceReplayGenerator(dir).total_ops(), 1u);
    write_row(std::uint64_t(1) << 62);
    try {
        workloads::TraceReplayGenerator gen(dir);
        ADD_FAILURE() << "a 2^62-byte request was accepted";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(dir.string()), std::string::npos) << what;
        EXPECT_NE(what.find("request 17"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(kLimit)), std::string::npos) << what;
    }
    fs::remove_all(dir);
}

TEST(MergeGenerator, MergesInTimeOrderAndRejectsCollisions) {
    auto part = [](const std::string& prefix, std::size_t count, double rate) {
        workloads::MixGenerator::Params p;
        p.count = count;
        p.file_prefix = prefix;
        p.files = 2;
        return std::make_unique<workloads::MixGenerator>(
            p, std::make_unique<queueing::PoissonArrivals>(rate), sim::Rng(4));
    };
    std::vector<std::unique_ptr<workloads::ScheduleStream>> parts;
    parts.push_back(part("a.", 50, 10.0));
    parts.push_back(part("b.", 70, 25.0));
    workloads::MergeGenerator merged(std::move(parts));
    EXPECT_EQ(merged.files().size(), 4u);
    const auto ops = drain(merged);
    ASSERT_EQ(ops.size(), 120u);
    std::size_t from_a = 0;
    for (const auto& op : ops)
        if (merged.files().at(op.file).first.rfind("a.", 0) == 0) ++from_a;
    EXPECT_EQ(from_a, 50u);  // merge drops nothing

    std::vector<std::unique_ptr<workloads::ScheduleStream>> colliding;
    colliding.push_back(part("same.", 10, 10.0));
    colliding.push_back(part("same.", 10, 10.0));
    EXPECT_THROW(workloads::MergeGenerator(std::move(colliding)),
                 std::invalid_argument);
}

TEST(ModelReplayGenerator, MatchesBatchGeneratorDraws) {
    // The streaming model walk must reproduce Generator::generate()'s
    // exact draw sequence: same times, types and storage sizes.
    const auto dir = fs::temp_directory_path() / "kooza_gen_model_src";
    fs::remove_all(dir);
    core::CaptureOptions co;
    co.profile = "micro";
    co.count = 200;
    co.seed = 31;
    const auto cap = core::run_capture(co);
    auto model = core::Trainer({.workload_name = "conformance"}).train(cap.traces);

    const std::size_t n = 150;
    const std::uint64_t seed = 13;
    sim::Rng rng(seed);
    const auto batch = core::Generator(model).generate(n, rng);

    core::ModelReplayGenerator::Params mp;
    mp.count = n;
    mp.seed = seed;
    core::ModelReplayGenerator gen(std::move(model), mp);
    const auto ops = drain(gen);
    ASSERT_EQ(ops.size(), n);
    const std::uint64_t file_size = gen.files()[0].second;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(ops[i].time, batch.requests[i].time) << i;
        EXPECT_EQ(ops[i].type, batch.requests[i].type) << i;
        EXPECT_EQ(ops[i].size,
                  std::min(batch.requests[i].storage_bytes, file_size))
            << i;
        EXPECT_LE(ops[i].offset + ops[i].size, file_size) << i;
    }
    fs::remove_all(dir);
}

TEST(ModelReplayGenerator, OneServerCaptureReachesEachRequestsLbn) {
    // A model's LBN counts 512-byte disk blocks. Replayed through a
    // one-server capture, each request's first storage record starts at
    // its synthetic request's own LBN, rounded down to 4 KB.
    core::CaptureOptions co;
    co.profile = "oltp";
    co.count = 400;
    co.seed = 7;
    const auto model =
        core::Trainer({.workload_name = "lbn"}).train(core::run_capture(co).traces);
    const auto path = fs::temp_directory_path() / "kooza_gen_model_lbn.model";
    core::save_model(model, path);

    const std::size_t n = 300;
    const std::uint64_t seed = 21;
    sim::Rng rng(seed);
    const auto batch = core::Generator(model).generate(n, rng);

    core::CaptureOptions replay;
    replay.model_file = path.string();
    replay.count = n;
    replay.seed = seed;
    replay.n_servers = 1;
    const auto cap = core::run_capture(replay);
    fs::remove(path);
    ASSERT_EQ(cap.completed, n);
    // Request ids count submissions: id i is synthetic request i, and its
    // first chunk holds its lowest block.
    std::vector<std::uint64_t> first(n, std::numeric_limits<std::uint64_t>::max());
    for (const auto& rec : cap.traces.storage) {
        ASSERT_LT(rec.request_id, n);
        first[rec.request_id] = std::min(first[rec.request_id], rec.lbn);
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(first[i], batch.requests[i].lbn & ~std::uint64_t(7)) << i;
}

// ---- Capture integration: byte identity across modes and threads ------

TEST(ScenarioCapture, StreamedByteIdenticalAcrossThreadCounts) {
    // Acceptance contract: `kooza_capture --scenario diurnal --stream`
    // produces byte-identical kooza.trace/1 files at 1 vs 8 threads, and
    // both match the materialized (non-streamed) capture.
    ThreadGuard guard;
    auto slurp = [](const fs::path& p) {
        std::ifstream f(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
    };
    core::CaptureOptions opts;
    opts.scenario = "diurnal";
    opts.count = 300;
    opts.rate = 40.0;
    opts.period = 15.0;
    opts.seed = 123;
    opts.format = trace::Format::kBinary;
    opts.chunk_records = 64;  // force many mid-run flushes

    const auto base = fs::temp_directory_path();
    const auto mat = base / "kooza_scen_mat";
    const auto st1 = base / "kooza_scen_t1";
    const auto st8 = base / "kooza_scen_t8";
    auto run_into = [&](const fs::path& dir, bool stream, std::size_t threads) {
        par::set_threads(threads);
        fs::remove_all(dir);
        auto o = opts;
        o.out_dir = dir.string();
        o.stream = stream;
        return core::run_capture(o);
    };
    const auto res_mat = run_into(mat, false, 1);
    const auto res_st1 = run_into(st1, true, 1);
    const auto res_st8 = run_into(st8, true, 8);
    EXPECT_GT(res_mat.records, 0u);
    EXPECT_EQ(res_mat.records, res_st1.records);
    EXPECT_EQ(res_mat.records, res_st8.records);
    for (const auto* stem : trace::kStreamStems) {
        const auto name = std::string(stem) + ".bin";
        const auto a = slurp(mat / name);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_EQ(a, slurp(st1 / name)) << name;
        EXPECT_EQ(a, slurp(st8 / name)) << name;
    }
    fs::remove_all(mat);
    fs::remove_all(st1);
    fs::remove_all(st8);
}

TEST(ScenarioCapture, ConflictingSourcesRejected) {
    core::CaptureOptions opts;
    opts.scenario = "diurnal";
    opts.model_file = "some.model";
    EXPECT_THROW((void)core::make_capture_schedule(opts), std::invalid_argument);
    core::CaptureOptions unknown;
    unknown.scenario = "nope";
    EXPECT_THROW((void)core::make_capture_schedule(unknown), std::invalid_argument);
}

// ---- Validator warning surface (bugfix regression) --------------------

TEST(ValidationReport, UnknownPhasesPrintAWarningRow) {
    core::ValidationReport rep;
    rep.model_name = "warn-test";
    EXPECT_EQ(rep.to_table().find("WARNING"), std::string::npos);
    rep.unknown_phases = 3;
    const auto table = rep.to_table();
    EXPECT_NE(table.find("WARNING"), std::string::npos);
    EXPECT_NE(table.find("3"), std::string::npos);
    EXPECT_NE(table.find("unknown_phases_total"), std::string::npos);
}

}  // namespace
