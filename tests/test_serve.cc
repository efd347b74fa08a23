/**
 * @file
 * The `ltp serve` daemon and its client backend, in-process: an
 * ephemeral-port Server plus ServeBackend exercising the whole wire
 * protocol — run cells (metrics identical to local execution), cache
 * hits on re-request, in-flight dedupe, control RPCs, and error
 * propagation for malformed work.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/cell_key.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

#include "held_backend.hh"

namespace {

using namespace ltp;

RunLengths
tiny()
{
    RunLengths l;
    l.funcWarm = 2000;
    l.pipeWarm = 400;
    l.detail = 1000;
    return l;
}

/** One daemon on an ephemeral port + scratch cache dir per test. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cacheDir_ =
            (std::filesystem::temp_directory_path() /
             ("ltp_serve_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name()))
                .string();
        std::filesystem::remove_all(cacheDir_);

        ServeOptions opts;
        opts.port = 0; // ephemeral: tests never collide on a port
        opts.threads = 4;
        opts.cacheDir = cacheDir_;
        opts.quiet = true;
        server_ = std::make_unique<Server>(opts);
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
        server_.reset();
        std::error_code ec;
        std::filesystem::remove_all(cacheDir_, ec);
    }

    std::unique_ptr<ServeBackend>
    connect()
    {
        return std::make_unique<ServeBackend>("127.0.0.1",
                                              server_->port());
    }

    std::string cacheDir_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServeTest, PingReportsProtocolVersion)
{
    auto client = connect();
    JsonValue reply = client->rpc("ping");
    ASSERT_TRUE(reply.isObject());
    EXPECT_EQ(reply.object.at("type").str, "pong");
    EXPECT_EQ(std::uint64_t(reply.object.at("version").num),
              std::uint64_t(kServeProtocolVersion));
    EXPECT_EQ(reply.object.at("model").str, modelFingerprint());
}

TEST_F(ServeTest, ServedMetricsMatchLocalExecution)
{
    auto client = connect();
    SimConfig cfg = SimConfig::baseline().withSeed(3);
    CellKey key = cellKeyFor(cfg, "graph_walk", tiny());

    CellResult served =
        client->runCell(key, cfg, "graph_walk", tiny(), SamplePlan{});
    EXPECT_FALSE(served.cacheHit);

    Metrics local = Simulator::runOnce(cfg, "graph_walk", tiny());
    EXPECT_EQ(metricsToJson(served.metrics), metricsToJson(local));
}

TEST_F(ServeTest, SecondRequestIsACacheHit)
{
    auto client = connect();
    SimConfig cfg = SimConfig::baseline();
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());

    CellResult first = client->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_FALSE(first.cacheHit);
    // Same cell again — answered from the daemon's cache, even from a
    // brand-new connection.
    CellResult again = client->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_TRUE(again.cacheHit);
    auto fresh = connect();
    CellResult other = fresh->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_TRUE(other.cacheHit);
    EXPECT_EQ(metricsToJson(first.metrics),
              metricsToJson(other.metrics));
}

TEST_F(ServeTest, ConcurrentIdenticalCellsComputeOnce)
{
    // Hammer one cell from many client threads at once: whichever
    // requests overlap must dedupe onto a single computation, and
    // every response must carry identical metrics.  (hit || deduped
    // is not asserted per-response because the first wave may all
    // arrive before the cell finishes — the stats RPC gives the
    // ground truth: exactly one compute.)
    SimConfig cfg = SimConfig::baseline().withSeed(11);
    CellKey key = cellKeyFor(cfg, "linked_list", tiny());

    constexpr int kClients = 6;
    std::vector<std::string> results(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([this, i, &results, &cfg, &key]() {
            ServeBackend client("127.0.0.1", server_->port());
            results[size_t(i)] = metricsToJson(
                client.runCell(key, cfg, "linked_list", tiny(), SamplePlan{})
                    .metrics);
        });
    for (std::thread &t : threads)
        t.join();

    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(results[size_t(i)], results[0]);

    auto client = connect();
    JsonValue stats = client->rpc("stats");
    EXPECT_EQ(std::uint64_t(stats.object.at("computed").num), 1u)
        << "identical concurrent cells were re-simulated";
}

TEST_F(ServeTest, RunnerSweepOverServeMatchesLocal)
{
    SweepSpec spec = SweepSpec::cross(
        "serve_sweep",
        {SimConfig::baseline().withName("base"),
         SimConfig::baseline().withIq(32).withName("iq32")},
        {"paper_loop", "graph_walk"}, tiny());

    SweepResult local = Runner(1).run(spec);
    SweepResult served =
        Runner(2, std::make_shared<ServeBackend>(
                      "127.0.0.1", server_->port()))
            .run(spec);
    EXPECT_EQ(served.backend, "serve");
    EXPECT_EQ(served.cacheHits, 0u);

    for (const std::string &row : local.grid.rows())
        for (const std::string &series : local.grid.series(row))
            EXPECT_EQ(metricsToJson(served.grid.at(row, series)),
                      metricsToJson(local.grid.at(row, series)))
                << row << "/" << series;

    // The whole sweep again: every cell comes back as a hit.
    SweepResult warm =
        Runner(2, std::make_shared<ServeBackend>(
                      "127.0.0.1", server_->port()))
            .run(spec);
    EXPECT_EQ(warm.cacheHits, warm.simulations);
}

TEST_F(ServeTest, ServerStreamsProgressFrames)
{
    auto client = connect();
    SimConfig cfg = SimConfig::baseline();
    for (int i = 0; i < 3; ++i) {
        SimConfig c = cfg;
        c.seed = std::uint64_t(100 + i);
        client->runCell(cellKeyFor(c, "paper_loop", tiny()), c,
                        "paper_loop", tiny(), SamplePlan{});
    }
    // One {done,total,hits} push per completed cell.
    EXPECT_EQ(client->progressFrames(), 3u);
}

TEST_F(ServeTest, UnknownWorkloadComesBackAsError)
{
    auto client = connect();
    SimConfig cfg = SimConfig::baseline();
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    EXPECT_THROW(
        client->runCell(key, cfg, "no_such_kernel_anywhere", tiny(), SamplePlan{}),
        std::runtime_error);
    // The connection survives a failed cell.
    EXPECT_NO_THROW(client->rpc("ping"));
}

// ---------------------------------------------------------------------------
// Wire bytes, pinned: a change here is a protocol change, and needs a
// kServeProtocolVersion bump.  The key and the model fingerprint are
// the build's own, substituted.
// ---------------------------------------------------------------------------

TEST(ServeWireTest, RunFrameBytesArePinned)
{
    // A stand-in daemon records the client's first frame and fails
    // the request.
    Listener listener(0);
    std::string line;
    std::thread daemon([&]() {
        LineConn conn(listener.accept());
        if (conn.readLine(line))
            conn.writeFrame(parseJson(
                R"({"id":1,"message":"recorded","type":"error"})"));
        std::string rest;
        while (conn.readLine(rest)) {
        }
    });
    SimConfig cfg = SimConfig::ltpProposal(LtpMode::NRNU);
    cfg.name = "odd \"quoted\" back\\slash";
    cfg.mem.dram.cpuCyclesPerDramCycle = 3.7;
    cfg.seed = 42;
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    {
        ServeBackend client("127.0.0.1", listener.port());
        EXPECT_THROW(client.runCell(key, cfg, "paper_loop", tiny(),
                                    SamplePlan{}),
                     std::runtime_error);
    }
    daemon.join();
    EXPECT_EQ(line,
        R"({"config":{"core":{"bpTableBits":14,"btbEntries":4096,)"
        R"("commitWidth":8,"decodeWidth":8,"fetchPolicy":"roundRobin",)"
        R"("fetchQueueCap":64,"fetchWidth":8,"fpRegs":96,)"
        R"("frontendDepth":3,"fu":{"alu":4,"fp":2,"ld":2,"mul":2,)"
        R"("st":1},"intRegs":96,"iq":32,"issueWidth":6,"lq":64,)"
        R"("ltp":{"classifier":"learned","delayLqSq":false,)"
        R"("entries":128,"extractPorts":4,"insertPorts":4,)"
        R"("mode":"NR+NU","monitor":true,"reservedLqSq":4,)"
        R"("reservedRegs":8,"tickets":64,"uitAssoc":4,"uitEntries":256,)"
        R"("wakeup":"robProximity"},"numThreads":1,"redirectPenalty":8,)"
        R"("renameWidth":8,"rob":256,"sq":32,"sqDrainWidth":2,)"
        R"("wbWidth":8},"mem":{"dram":{"banks":8,"burstCk":4,)"
        R"("channels":2,"clCk":11,"controllerLatency":20,)"
        R"("cpuCyclesPerDramCycle":3.7000000000000002,"rcdCk":11,)"
        R"("rowBytes":8192,"rpCk":11},"earlyLead":8,"l1d":{"assoc":8,)"
        R"("hitLatency":4,"sizeKB":32},"l1dMshrs":"inf",)"
        R"("l1i":{"assoc":8,"hitLatency":4,"sizeKB":32},)"
        R"("l2":{"assoc":8,"hitLatency":12,"sizeKB":256},)"
        R"("l3":{"assoc":16,"hitLatency":36,"sizeKB":1024},)"
        R"("llThreshold":40,"prefetchDegree":4,"prefetchEnabled":true},)"
        R"("name":"odd \"quoted\" back\\slash","seed":42},"id":1,)"
        R"("key":")" + key.hex + R"(",)"
        R"("lengths":{"detail":1000,"funcWarm":2000,"pipeWarm":400},)"
        R"("model":")" + modelFingerprint() + R"(",)"
        R"("type":"run","workload":"paper_loop"})");
}

TEST_F(ServeTest, HitReplyBytesArePinned)
{
    SimConfig cfg = SimConfig::baseline();
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    Metrics m;
    m.config = cfg.name;
    m.workload = "paper_loop";
    m.insts = 1000;
    m.cycles = 1234;
    m.ipc = 1000.0 / 1234.0;
    m.cpi = 1.234;
    m.avgOutstanding = 2.5;
    m.dramReads = 77;
    m.iqOcc = 31.25;
    m.parked = 5;
    m.energy.iq = 0.1;
    m.energy.rf = 0.2;
    m.energy.ltp = 0.3;
    m.ed2p = 1e-9;
    ResultCache(cacheDir_).store(key, cfg, tiny(), m);

    LineConn conn(connectTcp("127.0.0.1", server_->port()));
    JsonValue run = parseJson(
        R"({"config":{"name":"base-iq64-rf128","core":{"ltp":)"
        R"({"mode":"off"}}},"id":9,"lengths":{"detail":1000,)"
        R"("funcWarm":2000,"pipeWarm":400},"type":"run",)"
        R"("workload":"paper_loop"})");
    run.object["key"] = jsonStr(key.hex);
    run.object["model"] = jsonStr(modelFingerprint());
    ASSERT_TRUE(conn.writeFrame(run));
    // The progress push, then the result, in one write.
    std::string progress, result;
    ASSERT_TRUE(conn.readLine(progress));
    ASSERT_TRUE(conn.readLine(result));
    EXPECT_EQ(progress,
        R"({"done":1,"hits":1,"total":1,"type":"progress"})");
    EXPECT_EQ(result,
        R"({"deduped":false,"hit":true,"id":9,)"
        R"("metrics":{"avgLoadLatency":0,"avgOutstanding":2.5,)"
        R"("bpAccuracy":0,"config":"base-iq64-rf128","cpi":1.234,)"
        R"("cycles":1234,"dramReads":77,"ed2p":1.0000000000000001e-09,)"
        R"("edp":0,"energy":{"iq":0.10000000000000001,)"
        R"("ltp":0.29999999999999999,"rf":0.20000000000000001},)"
        R"("forcedUnparks":0,"insts":1000,"ipc":0.81037277147487841,)"
        R"("iqOcc":31.25,"llpredAccuracy":0,"lqOcc":0,)"
        R"("ltpEnabledFrac":0,"ltpLoadsOcc":0,"ltpOcc":0,)"
        R"("ltpRegsOcc":0,"ltpStoresOcc":0,"parked":5,"parkedFrac":0,)"
        R"("pressureUnparks":0,"rfOcc":0,"robOcc":0,"schemaVersion":2,)"
        R"("sqOcc":0,"unparked":0,"workload":"paper_loop"},)"
        R"("type":"result"})");
}

TEST_F(ServeTest, AnotherModelsKeyGetsAnErrorAndStoresNothing)
{
    // A client of another build sends its key: the daemon's model
    // would store its number under that build's key.  It must refuse,
    // naming both fingerprints, and compute and store nothing.
    SimConfig cfg = SimConfig::baseline();
    LineConn conn(connectTcp("127.0.0.1", server_->port()));
    for (const char *model : {"bogus", ""}) {
        JsonValue run = parseJson(
            R"({"config":{"name":"base-iq64-rf128"},"id":3,)"
            R"("lengths":{"detail":1000,"funcWarm":2000,"pipeWarm":400},)"
            R"("type":"run","workload":"paper_loop"})");
        run.object["key"] =
            jsonStr(cellKeyFor(cfg, "paper_loop", tiny()).hex);
        if (*model)
            run.object["model"] = jsonStr(model);
        ASSERT_TRUE(conn.writeFrame(run));
        std::string reply;
        ASSERT_TRUE(conn.readLine(reply));
        JsonValue frame = parseJson(reply);
        EXPECT_EQ(frame.object.at("type").str, "error") << reply;
        const std::string &msg = frame.object.at("message").str;
        EXPECT_NE(msg.find(*model ? model : "(none)"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(modelFingerprint()), std::string::npos) << msg;
    }
    JsonValue stats = connect()->rpc("stats");
    EXPECT_EQ(std::uint64_t(stats.object.at("computed").num), 0u);
    EXPECT_EQ(stats.object.at("model").str, modelFingerprint());
    EXPECT_EQ(ResultCache(cacheDir_).usage().entries, 0u);
}

// ---------------------------------------------------------------------------
// Transport robustness: a daemon that is absent or hung must fail the
// request with an error naming the server, never block forever.
// ---------------------------------------------------------------------------

TEST(ServeClientRobustnessTest, HungDaemonTimesOutNamingTheServer)
{
    // A "daemon" that accepts the connection and then never says
    // another byte — the pathology that used to wedge a whole sweep
    // inside a blocking recv().
    Listener listener(0);
    std::thread acceptor([&listener]() {
        int fd = listener.accept();
        // Hold the connection open, silently, until the test is done.
        if (fd >= 0) {
            char c;
            while (::recv(fd, &c, 1, 0) > 0) {
            }
            ::close(fd);
        }
    });

    {
        ServeClientOptions opts;
        opts.replyTimeoutMs = 300;
        ServeBackend client("127.0.0.1", listener.port(), opts);
        try {
            client.rpc("ping");
            FAIL() << "rpc against a silent daemon must not return";
        } catch (const std::runtime_error &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("127.0.0.1:" +
                               std::to_string(listener.port())),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("silence"), std::string::npos) << msg;
        }
        // Destroying the client closes its socket, which is what ends
        // the acceptor's recv() loop — join only after that.
    }
    listener.close();
    acceptor.join();
}

TEST(ServeClientRobustnessTest, UnreachableDaemonFailsAfterBoundedRetry)
{
    // Grab an ephemeral port and close it again: connecting there is
    // refused, so every bounded attempt fails fast.
    int dead_port;
    {
        Listener probe(0);
        dead_port = probe.port();
    }

    ServeClientOptions opts;
    opts.connectTimeoutMs = 200;
    opts.connectAttempts = 2;
    opts.connectRetryDelayMs = 10;
    try {
        ServeBackend client("127.0.0.1", dead_port, opts);
        FAIL() << "connect to a closed port must throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("2 attempt(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("127.0.0.1:" + std::to_string(dead_port)),
                  std::string::npos)
            << msg;
    }
}

TEST_F(ServeTest, ProgressTrafficKeepsASlowRequestAlive)
{
    // The timeout measures *silence*, not latency: a cell that takes
    // longer than replyTimeoutMs must still succeed as long as the
    // server sends anything (pongs, other results) meanwhile.  A
    // daemon whose compute backend holds the cell makes it slow.
    auto held = std::make_shared<HeldBackend>();
    ServeOptions sopts;
    sopts.port = 0;
    sopts.threads = 2;
    sopts.useCache = false;
    sopts.quiet = true;
    sopts.compute = held;
    Server server(sopts);
    server.start();

    constexpr int kTimeoutMs = 150;
    ServeClientOptions opts;
    opts.replyTimeoutMs = kTimeoutMs;
    ServeBackend slow("127.0.0.1", server.port(), opts);

    SimConfig cfg = SimConfig::baseline().withSeed(11);
    std::atomic<bool> done{false};
    std::string result_json, error;
    auto start = std::chrono::steady_clock::now();
    std::thread cell([&]() {
        try {
            result_json = metricsToJson(
                slow.runCell(CellKey{}, cfg, "paper_loop", tiny(),
                             SamplePlan{})
                    .metrics);
        } catch (const std::exception &e) {
            error = e.what();
        }
        done = true;
    });

    // Hold the cell for four silence windows while pings on the same
    // connection keep traffic flowing; keep pinging after the release
    // too, so the cell's own compute time is never silent either.
    held->waitStarted();
    bool released = false;
    while (!done) {
        EXPECT_NO_THROW(slow.rpc("ping"));
        if (!released && std::chrono::steady_clock::now() - start >
                             std::chrono::milliseconds(4 * kTimeoutMs)) {
            held->release();
            released = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!released)
        held->release(); // the request failed early: free the pool
    cell.join();
    double held_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    EXPECT_EQ(error, "");
    EXPECT_GT(held_ms, 4.0 * kTimeoutMs);
    EXPECT_EQ(result_json, metricsToJson(Simulator::runOnce(
                               cfg, "paper_loop", tiny())));
    server.stop();
}

TEST_F(ServeTest, ServedAndLocalCacheEntriesAreByteIdentical)
{
    // One cell, missed once through the daemon and once through a
    // local CachedBackend: the two caches must hold the same bytes, so
    // a served cache and a local one are interchangeable.
    SimConfig cfg = SimConfig::baseline().withSeed(5);
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    auto client = connect();
    EXPECT_FALSE(
        client->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{})
            .cacheHit);

    std::string local_dir = cacheDir_ + "_local";
    std::filesystem::remove_all(local_dir);
    auto local_cache = std::make_shared<ResultCache>(local_dir);
    CachedBackend local(LocalBackend::instance(), local_cache);
    EXPECT_FALSE(
        local.runCell(key, cfg, "paper_loop", tiny(), SamplePlan{})
            .cacheHit);

    // Each cache holds exactly this one entry file.
    auto entryBytes = [](const std::string &dir) {
        std::vector<std::string> files;
        for (const auto &e :
             std::filesystem::recursive_directory_iterator(dir))
            if (e.is_regular_file())
                files.push_back(e.path().string());
        EXPECT_EQ(files.size(), 1u) << dir;
        std::ifstream in(files.at(0), std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    EXPECT_EQ(ResultCache(cacheDir_).list().at(0).workload,
              "kernel/paper_loop");
    EXPECT_EQ(entryBytes(cacheDir_), entryBytes(local_dir));
    std::error_code ec;
    std::filesystem::remove_all(local_dir, ec);
}

TEST_F(ServeTest, StatsCountsRequestsAndShutdownStopsTheServer)
{
    auto client = connect();
    client->rpc("ping");
    JsonValue stats = client->rpc("stats");
    EXPECT_GE(std::uint64_t(stats.object.at("requests").num), 2u);
    EXPECT_EQ(stats.object.at("cacheDir").str, cacheDir_);

    JsonValue ok = client->rpc("shutdown");
    EXPECT_EQ(ok.object.at("type").str, "ok");
    server_->waitForShutdown(); // returns promptly after the RPC
}

} // namespace
