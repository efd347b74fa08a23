/**
 * @file
 * perfbench: the benchmark of record.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--workdir DIR] [--spans FILE] [--inject-mismatch N]
 *
 * Prints every metric by name and unit, then, as the last line of
 * standard output, one JSON object {correct, attempted, failed,
 * metrics}.  Exits 1 when any cell failed or mismatched its reference,
 * 2 on a usage or set-up error (without a result line).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.hh"

namespace {

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir DIR] "
                 "[--spans FILE] [--inject-mismatch N]\n",
                 msg.c_str());
    std::exit(2);
}

/** Full-precision JSON number (NaN/inf are not JSON: report 0). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    opt.threads = int(std::min(4u, std::max(1u,
                                   std::thread::hardware_concurrency())));
    opt.workDir = ".perfbench-work";
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                opt.workload = v;
                haveWorkload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                opt.trace = std::stoi(v) != 0;
            } else if (a == "--workdir") {
                opt.workDir = v;
            } else if (a == "--spans") {
                opt.spansPath = v;
            } else if (a == "--inject-mismatch") {
                opt.injectAt = std::stoull(v);
            } else {
                usage("unknown flag " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + a);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");

    perfbench::Report rep;
    try {
        std::filesystem::remove_all(opt.workDir);
        std::filesystem::create_directories(opt.workDir);
        rep = perfbench::runWorkload(opt);
        std::filesystem::remove_all(opt.workDir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 2;
    }

    std::printf("== perfbench %s (seed %llu, %s, %d threads) ==\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.trace ? "traced" : "untraced", opt.threads);
    for (const auto &[name, m] : rep.metrics)
        std::printf("%-28s %18.6f %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%-28s %18.6f ratio  (%llu of %llu cells)\n",
                "failed_frac", rep.tally.failedFrac(),
                (unsigned long long)rep.tally.failed,
                (unsigned long long)rep.tally.attempted);
    for (const std::string &n : rep.notes)
        std::printf("note: %s\n", n.c_str());
    for (const std::string &n : rep.tally.notes)
        std::printf("MISMATCH: %s\n", n.c_str());

    bool correct = rep.tally.failed == 0 && rep.tally.attempted > 0;
    std::string json = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(rep.tally.attempted) +
                       ", \"failed\": " + std::to_string(rep.tally.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : rep.metrics) {
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
                num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
