/**
 * @file
 * Distributed serve mode, in-process: a frontend daemon fanning cells
 * out to two localhost worker daemons.  Asserts the tentpole
 * guarantees — byte-identity with a local sweep, exactly-once compute
 * under concurrent identical submissions, re-dispatch around a killed
 * worker, in-process fallback when every worker is down, cache peer
 * lookup, one-frame whole-scenario submission, and the graceful
 * shutdown drain.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/cell_key.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
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

std::uint64_t
statU64(const JsonValue &stats, const std::string &key)
{
    auto it = stats.object.find(key);
    if (it == stats.object.end() || !it->second.isNumber())
        return 0;
    std::uint64_t out = 0;
    u64FromLexeme(it->second.str, &out);
    return out;
}

/** Two worker daemons + one frontend dispatching to them, each with
 *  its own scratch cache dir, all on ephemeral ports. */
class DistributedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = (std::filesystem::temp_directory_path() /
                 ("ltp_dist_test_" + std::to_string(::getpid()) + "_" +
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()))
                    .string();
        std::filesystem::remove_all(base_);

        worker1_ = startWorker("w1");
        worker2_ = startWorker("w2");

        ServeOptions fo;
        fo.port = 0;
        fo.threads = 4;
        fo.cacheDir = base_ + "/frontend";
        fo.quiet = true;
        fo.workers = {workerAddress(worker1_.get()),
                      workerAddress(worker2_.get())};
        frontend_ = std::make_unique<Server>(fo);
        frontend_->start();
    }

    void
    TearDown() override
    {
        frontend_->stop();
        frontend_.reset(); // closes the WorkerPool's connections
        worker1_->stop();
        worker2_->stop();
        worker1_.reset();
        worker2_.reset();
        std::error_code ec;
        std::filesystem::remove_all(base_, ec);
    }

    std::unique_ptr<Server>
    startWorker(const std::string &name)
    {
        ServeOptions opts;
        opts.port = 0;
        opts.threads = 2;
        opts.cacheDir = base_ + "/" + name;
        opts.quiet = true;
        auto server = std::make_unique<Server>(opts);
        server->start();
        return server;
    }

    static std::string
    workerAddress(const Server *server)
    {
        return "127.0.0.1:" + std::to_string(server->port());
    }

    std::unique_ptr<ServeBackend>
    frontendClient()
    {
        return std::make_unique<ServeBackend>("127.0.0.1",
                                              frontend_->port());
    }

    std::unique_ptr<ServeBackend>
    workerClient(const Server *server)
    {
        return std::make_unique<ServeBackend>("127.0.0.1",
                                              server->port());
    }

    /** Per-worker counter summed over the frontend's `workers` stats
     *  array. */
    std::uint64_t
    workerStatSum(const std::string &key)
    {
        auto client = frontendClient();
        JsonValue stats = client->rpc("stats");
        auto it = stats.object.find("workers");
        if (it == stats.object.end() || !it->second.isArray())
            return 0;
        std::uint64_t sum = 0;
        for (const JsonValue &w : it->second.array)
            sum += statU64(w, key);
        return sum;
    }

    std::string base_;
    std::unique_ptr<Server> worker1_;
    std::unique_ptr<Server> worker2_;
    std::unique_ptr<Server> frontend_;
};

TEST_F(DistributedTest, SweepThroughWorkersMatchesLocal)
{
    SweepSpec spec = SweepSpec::cross(
        "dist_sweep",
        {SimConfig::baseline().withName("base"),
         SimConfig::baseline().withIq(32).withName("iq32")},
        {"paper_loop", "graph_walk"}, tiny());

    SweepResult local = Runner(1).run(spec);
    SweepResult dist =
        Runner(4, std::make_shared<ServeBackend>(
                      "127.0.0.1", frontend_->port()))
            .run(spec);

    for (const std::string &row : local.grid.rows())
        for (const std::string &series : local.grid.series(row))
            EXPECT_EQ(metricsToJson(dist.grid.at(row, series)),
                      metricsToJson(local.grid.at(row, series)))
                << row << "/" << series;

    // Every cell was simulated on a worker, none on the frontend: the
    // workers' own compute counters account for all four cells.
    auto w1 = workerClient(worker1_.get());
    auto w2 = workerClient(worker2_.get());
    EXPECT_EQ(statU64(w1->rpc("stats"), "computed") +
                  statU64(w2->rpc("stats"), "computed"),
              4u);
    EXPECT_EQ(workerStatSum("completed"), 4u);
    EXPECT_GE(workerStatSum("dispatched"), 4u);
    EXPECT_EQ(workerStatSum("failed"), 0u);
}

TEST_F(DistributedTest, ConcurrentIdenticalScenarioSubmissionsComputeOnce)
{
    // One explicit-jobs scenario, submitted twice at the same moment:
    // the frontend's in-flight dedupe (claim-before-cache) must make
    // the cluster simulate each cell exactly once.
    SweepSpec spec;
    spec.name = "dist_scenario";
    spec.lengths = tiny();
    spec.add("paper_loop", "base", SimConfig::baseline().withSeed(41),
             "paper_loop");
    spec.add("graph_walk", "base", SimConfig::baseline().withSeed(42),
             "graph_walk");
    spec.add("linked_list", "base", SimConfig::baseline().withSeed(43),
             "linked_list");
    spec.add("sparse_gather", "base",
             SimConfig::baseline().withSeed(44), "sparse_gather");
    JsonValue root = parseJson(sweepSpecToJson(spec));

    std::vector<SweepResult> results(2);
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i)
        threads.emplace_back([this, i, &results, &root]() {
            ServeBackend client("127.0.0.1", frontend_->port());
            results[std::size_t(i)] = client.submitScenario(root);
        });
    for (std::thread &t : threads)
        t.join();

    SweepResult local = Runner(1).run(spec);
    for (const SweepResult &res : results) {
        EXPECT_EQ(res.backend, "serve");
        EXPECT_EQ(res.simulations, 4u);
        for (const std::string &row : local.grid.rows())
            for (const std::string &series : local.grid.series(row))
                EXPECT_EQ(metricsToJson(res.grid.at(row, series)),
                          metricsToJson(local.grid.at(row, series)))
                    << row << "/" << series;
    }

    auto w1 = workerClient(worker1_.get());
    auto w2 = workerClient(worker2_.get());
    EXPECT_EQ(statU64(w1->rpc("stats"), "computed") +
                  statU64(w2->rpc("stats"), "computed"),
              4u)
        << "identical concurrent scenarios re-simulated cells";
}

TEST_F(DistributedTest, KilledWorkerIsMarkedDownAndCellsRedispatch)
{
    // Kill worker1 — the dispatcher's tie-break favorite, so the very
    // first dispatch is guaranteed to hit the dead worker, fail fast
    // on the closed connection, mark it down, and re-dispatch.
    std::string dead = workerAddress(worker1_.get());
    worker1_->stop();

    SweepSpec spec = SweepSpec::cross(
        "dist_kill",
        {SimConfig::baseline().withSeed(7).withName("base"),
         SimConfig::baseline().withSeed(7).withIq(32).withName("iq32")},
        {"paper_loop", "graph_walk"}, tiny());

    SweepResult local = Runner(1).run(spec);
    SweepResult dist =
        Runner(4, std::make_shared<ServeBackend>(
                      "127.0.0.1", frontend_->port()))
            .run(spec);
    for (const std::string &row : local.grid.rows())
        for (const std::string &series : local.grid.series(row))
            EXPECT_EQ(metricsToJson(dist.grid.at(row, series)),
                      metricsToJson(local.grid.at(row, series)))
                << row << "/" << series;

    auto client = frontendClient();
    JsonValue stats = client->rpc("stats");
    auto it = stats.object.find("workers");
    ASSERT_TRUE(it != stats.object.end() && it->second.isArray());
    bool saw_dead = false;
    for (const JsonValue &w : it->second.array) {
        if (w.object.at("worker").str != dead)
            continue;
        saw_dead = true;
        EXPECT_FALSE(w.object.at("up").boolean);
        EXPECT_GE(statU64(w, "failed"), 1u);
        EXPECT_EQ(statU64(w, "completed"), 0u);
    }
    EXPECT_TRUE(saw_dead);

    // The survivor carried the whole sweep.
    auto w2 = workerClient(worker2_.get());
    EXPECT_EQ(statU64(w2->rpc("stats"), "computed"), 4u);
}

TEST_F(DistributedTest, AllWorkersDownFallsBackToInProcessCompute)
{
    worker1_->stop();
    worker2_->stop();

    SimConfig cfg = SimConfig::baseline().withSeed(21);
    CellKey key = cellKeyFor(cfg, "paper_loop", tiny());
    auto client = frontendClient();
    CellResult r =
        client->runCell(key, cfg, "paper_loop", tiny(), SamplePlan{});
    EXPECT_FALSE(r.cacheHit);
    EXPECT_EQ(metricsToJson(r.metrics),
              metricsToJson(Simulator::runOnce(cfg, "paper_loop",
                                               tiny())));

    JsonValue stats = client->rpc("stats");
    EXPECT_GE(statU64(stats, "computed"), 1u);
    auto it = stats.object.find("workers");
    ASSERT_TRUE(it != stats.object.end() && it->second.isArray());
    for (const JsonValue &w : it->second.array)
        EXPECT_FALSE(w.object.at("up").boolean)
            << w.object.at("worker").str;
}

TEST_F(DistributedTest, PeerCacheLookupAvoidsRecompute)
{
    SimConfig cfg = SimConfig::baseline().withSeed(31);
    CellKey key = cellKeyFor(cfg, "graph_walk", tiny());

    // Warm worker1's cache directly, bypassing the frontend.
    auto w1 = workerClient(worker1_.get());
    CellResult first =
        w1->runCell(key, cfg, "graph_walk", tiny(), SamplePlan{});
    EXPECT_FALSE(first.cacheHit);

    // Through the frontend: local miss, answered by worker1's cache
    // via the lookup frame — no dispatch, no recompute anywhere.
    auto client = frontendClient();
    CellResult via =
        client->runCell(key, cfg, "graph_walk", tiny(), SamplePlan{});
    EXPECT_TRUE(via.cacheHit);
    EXPECT_EQ(metricsToJson(via.metrics), metricsToJson(first.metrics));
    JsonValue stats = client->rpc("stats");
    EXPECT_EQ(statU64(stats, "peerHits"), 1u);
    EXPECT_EQ(statU64(stats, "computed"), 0u);

    // The hit replicated into the frontend's own cache: the next
    // request is answered locally, without another peer probe.
    CellResult again =
        client->runCell(key, cfg, "graph_walk", tiny(), SamplePlan{});
    EXPECT_TRUE(again.cacheHit);
    stats = client->rpc("stats");
    EXPECT_EQ(statU64(stats, "peerHits"), 1u);
    EXPECT_EQ(statU64(stats, "cacheHits"), 2u);
}

TEST_F(DistributedTest, ScenarioSubmissionIsOneRequestFrame)
{
    SweepSpec spec;
    spec.name = "dist_one_frame";
    spec.lengths = tiny();
    spec.add("paper_loop", "base", SimConfig::baseline().withSeed(51),
             "paper_loop");
    spec.add("linked_list", "base",
             SimConfig::baseline().withSeed(52), "linked_list");
    JsonValue root = parseJson(sweepSpecToJson(spec));

    auto client = frontendClient();
    std::uint64_t before = statU64(client->rpc("stats"), "requests");
    SweepResult res = client->submitScenario(root);
    std::uint64_t after = statU64(client->rpc("stats"), "requests");

    // The whole 2-cell scenario cost the frontend ONE request frame
    // (the delta's second frame is the stats call itself).
    EXPECT_EQ(after - before, 2u);

    EXPECT_EQ(res.backend, "serve");
    EXPECT_EQ(res.simulations, 2u);
    EXPECT_EQ(res.computed, 2u);
    SweepResult local = Runner(1).run(spec);
    for (const std::string &row : local.grid.rows())
        for (const std::string &series : local.grid.series(row))
            EXPECT_EQ(metricsToJson(res.grid.at(row, series)),
                      metricsToJson(local.grid.at(row, series)))
                << row << "/" << series;
}

TEST(DistributedConnectTest, WorkerOfAnotherModelIsRefusedAtConnect)
{
    // A stand-in worker that answers `stats` as another build would.
    Listener listener(0);
    std::thread worker([&listener]() {
        int fd = listener.accept();
        if (fd < 0)
            return;
        LineConn conn(fd);
        std::string line;
        while (conn.readLine(line)) {
            JsonValue req = parseJson(line);
            JsonValue reply = parseJson(
                R"({"type":"stats","model":"bogus","threads":2})");
            reply.object["id"] = req.object.at("id");
            conn.writeFrame(reply);
        }
    });

    ServeOptions fo;
    fo.port = 0;
    fo.threads = 1;
    fo.useCache = false;
    fo.quiet = true;
    fo.workers = {"127.0.0.1:" + std::to_string(listener.port())};
    try {
        Server frontend(fo);
        ADD_FAILURE() << "a frontend accepted a worker of another model";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find(modelFingerprint()), std::string::npos) << msg;
        EXPECT_NE(msg.find("127.0.0.1:" + std::to_string(listener.port())),
                  std::string::npos)
            << msg;
    }
    // The refused pool closed its connection, which ends the worker.
    worker.join();
    listener.close();
}

TEST(DistributedShutdownTest, ShutdownDrainsInflightCells)
{
    // A standalone daemon with one cell held in flight: shutdown must
    // wait for it (bounded) and report it drained, and the client must
    // still receive the result.  The server's test seams make the
    // order deterministic: the cell blocks in the compute backend and
    // is released only once the shutdown drain has counted it.
    std::string cache_dir =
        (std::filesystem::temp_directory_path() /
         ("ltp_dist_drain_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(cache_dir);

    auto held = std::make_shared<HeldBackend>();
    ServeOptions opts;
    opts.port = 0;
    opts.threads = 2;
    opts.cacheDir = cache_dir;
    opts.quiet = true;
    opts.compute = held;
    opts.onDrainStart = [held]() { held->release(); };
    Server server(opts);
    server.start();

    RunLengths lengths = tiny();
    SimConfig cfg = SimConfig::baseline().withSeed(61);
    CellKey key = cellKeyFor(cfg, "paper_loop", lengths);

    std::string result_json;
    std::thread runner([&]() {
        ServeBackend client("127.0.0.1", server.port());
        result_json = metricsToJson(
            client.runCell(key, cfg, "paper_loop", lengths, SamplePlan{})
                .metrics);
    });

    held->waitStarted();
    ServeBackend control("127.0.0.1", server.port());
    EXPECT_EQ(statU64(control.rpc("stats"), "activeCells"), 1u);
    JsonValue ok = control.rpc("shutdown");
    EXPECT_EQ(ok.object.at("type").str, "ok");
    EXPECT_EQ(statU64(ok, "drained"), 1u);
    server.waitForShutdown();

    runner.join();
    EXPECT_EQ(result_json,
              metricsToJson(Simulator::runOnce(cfg, "paper_loop", lengths)));

    server.stop();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);
}

} // namespace
