/**
 * @file
 * Record/replay equivalence: for EVERY kernel in the registered suite,
 * replaying a freshly recorded `.lttr` trace must reproduce the
 * execute-mode Metrics bit-identically (the exact JSON dump, every
 * field) — under plain LTP, with the oracle classifier (which replays
 * the workload a second time), and through the sharded Runner.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/file_io.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "trace/suite.hh"
#include "trace/trace_file.hh"
#include "trace/trace_workload.hh"

namespace ltp {
namespace {

RunLengths
tiny()
{
    RunLengths l;
    l.funcWarm = 2000;
    l.pipeWarm = 400;
    l.detail = 1000;
    return l;
}

/** Per-process scratch dir; traces are recorded once and cached.
 *  Recreated fresh on first use (a recycled pid must not replay stale
 *  traces from an earlier build) and removed on test exit. */
std::string
scratchDir()
{
    static const std::string dir = [] {
        std::filesystem::path p =
            std::filesystem::temp_directory_path() /
            ("ltp_replay_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(p);
        std::filesystem::create_directories(p);
        return p.string();
    }();
    return dir;
}

class ScratchCleanup : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(scratchDir(), ec);
    }
};

const auto *const scratch_cleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

/** Record @p kernel at tiny() staging with @p seed; returns the path. */
std::string
recordedPath(const std::string &kernel, std::uint64_t seed = 1)
{
    RunLengths l = tiny();
    TraceInfo info;
    info.kernel = kernel;
    info.seed = seed;
    info.funcWarm = l.funcWarm;
    info.pipeWarm = l.pipeWarm;
    info.detail = l.detail;
    std::string path = scratchDir() + "/" + kernel + "_s" +
                       std::to_string(seed) + ".lttr";
    if (!std::filesystem::exists(path))
        writeFileAtomic(path, recordTrace(info));
    return path;
}

// ---------------------------------------------------------------------------
// Every suite kernel: replay == execute, bit for bit.
// ---------------------------------------------------------------------------

class ReplayIdentity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ReplayIdentity, LtpProposalMetricsBitIdentical)
{
    const std::string kernel = GetParam();
    std::string path = recordedPath(kernel);

    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NU);
    Metrics executed = Simulator::runOnce(cfg, kernel, tiny());
    Metrics replayed =
        Simulator::runOnce(cfg, traceName(path), tiny());
    EXPECT_EQ(metricsToJson(executed), metricsToJson(replayed));
}

TEST_P(ReplayIdentity, BaselineMetricsBitIdentical)
{
    const std::string kernel = GetParam();
    std::string path = recordedPath(kernel);

    SimConfig cfg = SimConfig::baseline();
    Metrics executed = Simulator::runOnce(cfg, kernel, tiny());
    Metrics replayed =
        Simulator::runOnce(cfg, traceName(path), tiny());
    EXPECT_EQ(metricsToJson(executed), metricsToJson(replayed));
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ReplayIdentity,
    ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const SuiteEntry &e : kernelSuite())
            names.push_back(e.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------------
// The oracle classifier replays the workload a second time; a trace
// must survive that double consumption too.
// ---------------------------------------------------------------------------

TEST(Replay, OracleLimitStudyBitIdentical)
{
    std::string path = recordedPath("graph_walk");
    SimConfig cfg = SimConfig::limitStudy(LtpMode::NRNU);
    Metrics executed = Simulator::runOnce(cfg, "graph_walk", tiny());
    Metrics replayed =
        Simulator::runOnce(cfg, traceName(path), tiny());
    EXPECT_EQ(metricsToJson(executed), metricsToJson(replayed));
}

// ---------------------------------------------------------------------------
// Traces flow through the string-keyed sweep machinery unchanged.
// ---------------------------------------------------------------------------

TEST(Replay, TraceJobsInShardedSweepMatchExecuteJobs)
{
    std::vector<std::string> kernels = {"paper_loop", "hash_probe"};
    SweepSpec execute, replay;
    execute.lengths = replay.lengths = tiny();
    SimConfig cfg = SimConfig::ltpProposal();
    for (const std::string &k : kernels) {
        execute.add(k, "ltp", cfg, k);
        replay.add(k, "ltp", cfg, traceName(recordedPath(k)));
    }
    SweepResult from_dsl = Runner(1).run(execute);
    SweepResult from_trace = Runner(2).run(replay);
    for (const std::string &k : kernels)
        EXPECT_EQ(metricsToJson(from_dsl.grid.at(k, "ltp")),
                  metricsToJson(from_trace.grid.at(k, "ltp")));
}

TEST(Replay, TracesScenarioCompilesOntoTraceKernels)
{
    std::string path = recordedPath("paper_loop");
    Scenario sc = scenarioFromJson(
        "{\"name\": \"rp\","
        " \"lengths\": {\"funcWarm\": 2000, \"pipeWarm\": 400, "
        "\"detail\": 1000},"
        " \"workloads\": {\"traces\": [" +
        writeJsonCompact(jsonStr(path)) + "]},"
        " \"configs\": [{\"series\": \"base\", \"preset\": "
        "\"baseline\"}]}");
    ASSERT_EQ(sc.workloadKind, Scenario::WorkloadKind::Traces);
    SweepSpec spec = sc.compile(1);
    ASSERT_EQ(spec.jobs.size(), 1u);
    EXPECT_EQ(spec.jobs[0].kernels,
              (std::vector<std::string>{traceName(path)}));
    // The row label is the file stem, not the raw path.
    EXPECT_EQ(spec.jobs[0].row, traceLabel(path));

    SweepResult run = Runner(1).run(spec);
    Metrics executed =
        Simulator::runOnce(sc.buildConfig(sc.configs[0]), "paper_loop",
                           tiny());
    EXPECT_EQ(metricsToJson(run.grid.at(spec.jobs[0].row, "base")),
              metricsToJson(executed));
}

TEST(Replay, DuplicateTraceRowLabelsAreRejected)
{
    // Two files with the same stem in different directories would
    // collide on the grid row key; the compile must refuse, not
    // silently overwrite cells.
    std::string a = recordedPath("paper_loop");
    std::string sub = scratchDir() + "/dup";
    std::filesystem::create_directories(sub);
    std::string b =
        sub + "/" + std::filesystem::path(a).filename().string();
    std::filesystem::copy_file(
        a, b, std::filesystem::copy_options::overwrite_existing);

    Scenario sc = scenarioFromJson(
        "{\"name\": \"dup\","
        " \"workloads\": {\"traces\": " +
        writeJsonCompact(jsonArray({jsonStr(a), jsonStr(b)})) + "},"
        " \"configs\": [{\"series\": \"base\", \"preset\": "
        "\"baseline\"}]}");
    try {
        (void)sc.compile(1);
        FAIL() << "duplicate row labels not rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate workload row"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------------
// Replay front-end behaviour.
// ---------------------------------------------------------------------------

TEST(Replay, WorkloadReportsSourceKernelName)
{
    std::string path = recordedPath("dense_compute");
    WorkloadPtr w = makeKernel(traceName(path));
    EXPECT_EQ(w->name(), "dense_compute");
}

TEST(Replay, HeaderCarriesRecordingParameters)
{
    std::string path = recordedPath("paper_loop", 7);
    auto trace = loadTraceCached(path);
    const TraceInfo &info = trace->info();
    EXPECT_EQ(info.kernel, "paper_loop");
    EXPECT_EQ(info.seed, 7u);
    EXPECT_EQ(info.funcWarm, tiny().funcWarm);
    EXPECT_EQ(info.pipeWarm, tiny().pipeWarm);
    EXPECT_EQ(info.detail, tiny().detail);
    EXPECT_EQ(info.count, info.recordLength());
}

TEST(Replay, RecordedStreamMatchesDslStream)
{
    std::string path = recordedPath("int_mix");
    WorkloadPtr dsl = makeKernel("int_mix");
    dsl->reset(1);
    WorkloadPtr replay = makeKernel(traceName(path));
    replay->reset(1);
    auto trace = loadTraceCached(path);
    for (std::uint64_t i = 0; i < trace->info().count; ++i) {
        MicroOp a = dsl->next();
        MicroOp b = replay->next();
        ASSERT_EQ(a.toString(), b.toString()) << "record " << i;
        ASSERT_EQ(a.taken, b.taken) << "record " << i;
        ASSERT_EQ(a.target, b.target) << "record " << i;
        ASSERT_EQ(a.memSize, b.memSize) << "record " << i;
    }
}

TEST(ReplayDeath, ExhaustedTraceIsFatalWithGuidance)
{
    std::string path = recordedPath("paper_loop");
    EXPECT_EXIT(
        {
            WorkloadPtr w = makeKernel(traceName(path));
            w->reset(1);
            auto trace = loadTraceCached(path);
            for (std::uint64_t i = 0; i <= trace->info().count; ++i)
                (void)w->next();
        },
        ::testing::ExitedWithCode(1), "exhausted");
}

TEST(Replay, UnreadableTraceFileThrows)
{
    EXPECT_THROW((void)loadTraceFile(scratchDir() + "/missing.lttr"),
                 std::runtime_error);
    EXPECT_THROW((void)makeTraceWorkload(scratchDir() + "/missing.lttr"),
                 std::runtime_error);
}

TEST(Replay, RecordingUnknownKernelThrows)
{
    TraceInfo info;
    info.kernel = "no_such_kernel";
    EXPECT_THROW((void)recordTrace(info), std::runtime_error);
}

} // namespace
} // namespace ltp
