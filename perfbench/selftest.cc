/**
 * @file
 * Self-tests of the benchmark's own arithmetic and checks: the tail
 * percentile rule, self time of nested spans, failed-cell counting on
 * an injected Metrics mismatch, and the served hit share matching the
 * seeded share.  Exits nonzero on the first failed check.
 *
 *   perfbench_selftest [--workdir DIR]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "harness.hh"
#include "sim/cell_key.hh"
#include "sim/result_cache.hh"

namespace {

int checks = 0;

#define CHECK(cond)                                                       \
    do {                                                                  \
        ++checks;                                                         \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,   \
                         __LINE__, #cond);                                \
            std::exit(1);                                                 \
        }                                                                 \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

using namespace perfbench;

void
testTailPercentile()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    Tail t = tailPercentile(v);
    CHECK(t.pct == 90); // p95 has only 5 samples beyond it
    CHECK(t.value == 90);
    CHECK(t.samples == 100 && t.beyond == 10);

    // The percentile is chosen for chooseN samples, then read off v.
    std::vector<double> w;
    for (int i = 1; i <= 1000; ++i)
        w.push_back(i);
    Tail u = tailPercentile(w, 100);
    CHECK(u.pct == 90 && u.value == 900 && u.beyond == 100);
    CHECK(tailPercentile(w).pct == 99);

    // Too few samples for any tail: the median, with its support.
    std::vector<double> few = {5, 1, 4, 2, 3};
    Tail f = tailPercentile(few);
    CHECK(f.pct == 50 && f.value == 3 && f.beyond == 2);
    CHECK(median({4, 1, 3, 2}) == 2.5);
}

void
testSelfTime()
{
    auto span = [](const char *name, double a, double b, int parent) {
        Span x;
        x.name = name;
        x.start = a;
        x.end = b;
        x.parent = parent;
        return x;
    };
    std::vector<Span> s = {
        span("parent", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),  // overlaps a (another thread)
        span("c", 8.0, 12.0, 0), // clipped to the parent
        span("leaf", 1.5, 2.0, 1),
    };
    s[4].phase = Phase::Reference; // a child in another phase
    std::vector<double> self = selfTimes(s);
    CHECK(near(self[0], 10.0 - 4.0 - 2.0));
    CHECK(near(self[1], 2.0 - 0.5));
    CHECK(near(self[2], 3.0));
    CHECK(near(self[4], 0.5));
    Summary sum = summarize(s);
    CHECK(sum[Phase::Pass]["a"].count == 1);
    CHECK(near(sum[Phase::Pass]["a"].self, 1.5));
    CHECK(near(sum[Phase::Pass]["parent"].self, 4.0));
    CHECK(sum[Phase::Pass].count("leaf") == 0);
    CHECK(near(sum[Phase::Reference]["leaf"].self, 0.5));

    // Scopes link to the enclosing span, inherit its cell id and take
    // the tracer's phase; Phase::Off records nothing.
    Tracer tracer(true);
    {
        Scope none(tracer, "before-any-phase");
    }
    tracer.setPhase(Phase::Setup);
    {
        Scope outer(tracer, "outer", 7);
        Scope inner(tracer, "inner");
    }
    tracer.setPhase(Phase::Off);
    {
        Scope none(tracer, "off");
    }
    std::vector<Span> got = tracer.spans();
    CHECK(got.size() == 2);
    CHECK(got[1].parent == 0 && got[1].cell == 7);
    CHECK(got[0].phase == Phase::Setup && got[1].phase == Phase::Setup);
    CHECK(got[1].start >= got[0].start && got[1].end <= got[0].end);
    Tracer off(false);
    {
        Scope nothing(off, "x");
    }
    CHECK(off.spans().empty());
}

/** A four-cell grid at toy staging. */
ltp::SweepSpec
tinySpec()
{
    return ltp::SweepSpec::cross(
        "selftest",
        {ltp::SimConfig::baseline(),
         ltp::SimConfig::ltpProposal(ltp::LtpMode::NU)},
        {"reduction", "linked_list"}, ltp::RunLengths{300, 100, 200});
}

void
testFailedFrac()
{
    ltp::SweepSpec spec = tinySpec();
    std::size_t cells = spec.simulationCount();
    GridDigest ref = gridDigest(
        ltp::Runner(1, ltp::LocalBackend::instance()).run(spec).grid);

    Tracer off(false);
    auto timed = std::make_shared<TimedBackend>(
        ltp::LocalBackend::instance(), off, Clock::now());
    ltp::Runner runner(2, timed);

    Tally tally;
    tally.add(cells, mismatchedCells(spec, gridDigest(runner.run(spec).grid),
                                     ref),
              "clean");
    CHECK(tally.failed == 0 && tally.attempted == cells);

    timed->injectMismatchAt(cells + 2); // second cell of the next pass
    tally.add(cells, mismatchedCells(spec, gridDigest(runner.run(spec).grid),
                                     ref),
              "injected");
    CHECK(tally.failed == 1 && tally.attempted == 2 * cells);
    CHECK(near(tally.failedFrac(), 1.0 / double(2 * cells)));
    CHECK(tally.notes.size() == 1);
    CHECK(timed->counts().cells == 2 * cells);
}

void
testHitShare(const std::string &dir)
{
    // Through a real cache: the hits the Runner sees are exactly the
    // seeded cells, and one missing entry shows as one error.  As in
    // resweep_served, the seeded cells are whole configs: the
    // second config is the series just added.
    ltp::SweepSpec spec = tinySpec();
    std::vector<bool> seeded;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i)
        seeded.push_back(i % 2 == 0);
    std::filesystem::remove_all(dir);
    auto cache = std::make_shared<ltp::ResultCache>(dir);
    std::uint64_t nSeeded = 0;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        if (!seeded[i])
            continue;
        const ltp::SweepJob &job = spec.jobs[i];
        ltp::CellKey key = ltp::cellKeyFor(job.cfg, job.kernels[0],
                                           spec.lengths, &spec.sampling);
        cache->store(key, job.cfg, spec.lengths,
                     ltp::Simulator::runOnce(job.cfg, job.kernels[0],
                                             spec.lengths));
        nSeeded += 1;
    }
    CHECK(nSeeded == 2);

    Tracer off(false);
    auto timed = std::make_shared<TimedBackend>(
        std::make_shared<ltp::CachedBackend>(ltp::LocalBackend::instance(),
                                             cache),
        off, Clock::now());
    ltp::Runner(2, timed).run(spec);
    std::vector<CellTiming> first = timed->take();
    CHECK(first.size() == spec.jobs.size());
    CHECK(hitShareError(first, nSeeded) == 0);

    // The misses are now stored too: a second pass is all hits.
    ltp::Runner(2, timed).run(spec);
    CHECK(hitShareError(timed->take(), nSeeded) == 2);
    std::filesystem::remove_all(dir);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = ".perfbench-selftest";
    if (argc == 3 && std::string(argv[1]) == "--workdir")
        dir = std::string(argv[2]) + "/selftest-cache";
    testTailPercentile();
    testSelfTime();
    testFailedFrac();
    testHitShare(dir);
    std::printf("perfbench_selftest: %d checks passed\n", checks);
    return 0;
}
