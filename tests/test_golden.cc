/**
 * @file
 * Golden-metrics regression suite: the committed JSON snapshots under
 * `tests/golden/` pin the exact Metrics (every field, bit for bit)
 * that the shipped scenarios produce at a fixed tiny staging plan.
 * Any change to simulator behaviour shows up as a cell-level diff
 * here.
 *
 * Intentional changes are re-baselined with either
 *
 *     ./build/test_golden --update-golden
 *     LTP_UPDATE_GOLDEN=1 ctest --test-dir build -L golden
 *
 * which rewrites the snapshots in the source tree; commit the result
 * with the change that caused it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"

#ifndef LTP_SCENARIO_DIR
#define LTP_SCENARIO_DIR "scenarios"
#endif
#ifndef LTP_GOLDEN_DIR
#define LTP_GOLDEN_DIR "tests/golden"
#endif

namespace ltp {
namespace {

bool update_mode = false;

/** The pinned staging plan all golden captures run at. */
RunLengths
goldenLengths()
{
    RunLengths l;
    l.funcWarm = 2000;
    l.pipeWarm = 400;
    l.detail = 1000;
    return l;
}

/**
 * Canonical, diff-friendly dump of a sweep: scenario name, staging,
 * and one entry per (row, series) cell with the full exact Metrics
 * JSON.  Thread count and wall clock are deliberately excluded so the
 * snapshot is stable across machines and -j levels.
 */
std::string
goldenJson(const std::string &scenario, const RunLengths &lengths,
           const ResultGrid &grid)
{
    JsonValue doc = jsonObject({{"scenario", jsonStr(scenario)},
                                {"lengths", lengthsTree(lengths)}});
    JsonValue &cells = doc.object["cells"] = jsonArray();
    for (const std::string &row : grid.rows())
        for (const std::string &series : grid.series(row)) {
            JsonValue &cell = cells.array.emplace_back(jsonObject(
                {{"row", jsonStr(row)}, {"series", jsonStr(series)}}));
            cell.object["metrics"] = metricsTree(grid.at(row, series));
        }
    return writeJson(doc) + "\n";
}

/** Cell-level diff so a regression names the first offending field. */
void
diffCells(const std::string &want, const std::string &got)
{
    JsonValue a = parseJson(want);
    JsonValue b = parseJson(got);
    const auto &wa = a.object["cells"].array;
    const auto &wb = b.object["cells"].array;
    EXPECT_EQ(wa.size(), wb.size()) << "cell count changed";
    for (std::size_t i = 0; i < wa.size() && i < wb.size(); ++i) {
        const JsonValue &ca = wa[i];
        const JsonValue &cb = wb[i];
        std::string key = ca.object.at("row").str + " / " +
                          ca.object.at("series").str;
        const auto &ma = ca.object.at("metrics").object;
        const auto &mb = cb.object.at("metrics").object;
        for (const auto &[field, value] : ma) {
            auto it = mb.find(field);
            if (it == mb.end()) {
                ADD_FAILURE()
                    << "(" << key << ") field '" << field
                    << "' missing from the regenerated metrics";
                continue;
            }
            EXPECT_EQ(writeJson(value), writeJson(it->second))
                << "(" << key << ") field '" << field << "' diverged";
        }
    }
}

void
checkGolden(const std::string &scenario_file, int threads)
{
    Scenario sc = loadScenarioFile(std::string(LTP_SCENARIO_DIR) + "/" +
                                   scenario_file + ".json");
    RunLengths lengths = goldenLengths();
    sc.lengths = lengths;
    SweepSpec spec = sc.compile(threads);
    spec.lengths = lengths;
    SweepResult result = Runner(threads).run(spec);

    std::string got = goldenJson(sc.name, lengths, result.grid);
    std::string path =
        std::string(LTP_GOLDEN_DIR) + "/" + scenario_file + ".json";

    if (update_mode) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(bool(out)) << "cannot write " << path;
        out << got;
        std::printf("updated %s (%zu cells)\n", path.c_str(),
                    result.grid.size());
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(bool(in))
        << "missing golden snapshot " << path
        << " — generate it with `./build/test_golden --update-golden` "
           "and commit the result";
    std::ostringstream want;
    want << in.rdbuf();

    if (want.str() != got) {
        diffCells(want.str(), got);
        // Belt and braces: even if every common field matched, any
        // textual difference (ordering, added fields) must fail.
        ADD_FAILURE()
            << "golden snapshot " << path << " diverged; if this "
            << "change is intentional, re-baseline with "
            << "`./build/test_golden --update-golden` and commit";
    }
}

TEST(Golden, Fig6IqQuick)
{
    checkGolden("fig6_iq_quick", 2);
}

TEST(Golden, Table1Compare)
{
    checkGolden("table1_compare", 2);
}

/** Re-running a capture in-process must be bit-stable (guards against
 *  goldens that could never match twice, e.g. hidden global state). */
TEST(Golden, CaptureIsSelfStable)
{
    Scenario sc = loadScenarioFile(std::string(LTP_SCENARIO_DIR) +
                                   "/fig6_iq_quick.json");
    sc.lengths = goldenLengths();
    SweepSpec spec = sc.compile(1);
    spec.lengths = sc.lengths;
    SweepResult a = Runner(2).run(spec);
    SweepResult b = Runner(1).run(spec);
    EXPECT_EQ(goldenJson(sc.name, sc.lengths, a.grid),
              goldenJson(sc.name, sc.lengths, b.grid));
}

} // namespace
} // namespace ltp

int
main(int argc, char **argv)
{
    // Strip --update-golden before gtest sees the command line; the
    // LTP_UPDATE_GOLDEN env var does the same for ctest invocations.
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden")
            ltp::update_mode = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;
    if (std::getenv("LTP_UPDATE_GOLDEN"))
        ltp::update_mode = true;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
