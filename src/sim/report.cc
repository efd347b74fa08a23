#include "sim/report.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace ltp {

namespace {

// Writing uses the shared ordered builder (common/json.hh) so field
// order matches the Metrics declaration rather than map order.

JsonObjectBuilder
metricsObject(const Metrics &m, int indent)
{
    JsonObjectBuilder o;
    o.u64("schemaVersion", kMetricsSchemaVersion);
    o.str("config", m.config);
    o.str("workload", m.workload);
    o.u64("insts", m.insts);
    o.u64("cycles", m.cycles);
    o.num("ipc", m.ipc);
    o.num("cpi", m.cpi);
    o.num("avgOutstanding", m.avgOutstanding);
    o.num("avgLoadLatency", m.avgLoadLatency);
    o.u64("dramReads", m.dramReads);
    o.num("iqOcc", m.iqOcc);
    o.num("robOcc", m.robOcc);
    o.num("lqOcc", m.lqOcc);
    o.num("sqOcc", m.sqOcc);
    o.num("rfOcc", m.rfOcc);
    o.num("ltpOcc", m.ltpOcc);
    o.num("ltpRegsOcc", m.ltpRegsOcc);
    o.num("ltpLoadsOcc", m.ltpLoadsOcc);
    o.num("ltpStoresOcc", m.ltpStoresOcc);
    o.num("ltpEnabledFrac", m.ltpEnabledFrac);
    o.num("parkedFrac", m.parkedFrac);
    o.u64("parked", m.parked);
    o.u64("unparked", m.unparked);
    o.u64("forcedUnparks", m.forcedUnparks);
    o.u64("pressureUnparks", m.pressureUnparks);
    o.num("llpredAccuracy", m.llpredAccuracy);
    o.num("bpAccuracy", m.bpAccuracy);

    JsonObjectBuilder energy;
    energy.num("iq", m.energy.iq);
    energy.num("rf", m.energy.rf);
    energy.num("ltp", m.energy.ltp);
    o.field("energy", energy.render(indent + 2));

    o.num("ed2p", m.ed2p);
    o.num("edp", m.edp);

    // SMT breakdown: emitted only for genuinely multi-context runs so
    // single-threaded Metrics JSON (and the committed golden
    // snapshots) is byte-identical to the pre-SMT format.
    if (m.threads.size() > 1) {
        std::string arr = "[\n";
        for (std::size_t i = 0; i < m.threads.size(); ++i) {
            const ThreadMetrics &tm = m.threads[i];
            JsonObjectBuilder to;
            to.str("workload", tm.workload);
            to.u64("insts", tm.insts);
            to.u64("cycles", tm.cycles);
            to.num("ipc", tm.ipc);
            arr += std::string(indent + 4, ' ') + to.render(indent + 4);
            if (i + 1 < m.threads.size())
                arr += ",";
            arr += "\n";
        }
        arr += std::string(indent + 2, ' ') + "]";
        JsonObjectBuilder smt;
        smt.num("weightedSpeedup", m.weightedSpeedup);
        smt.field("threads", arr);
        o.field("smt", smt.render(indent + 2));
    }

    // Sampling summary: emitted only for sampled runs, so full-detail
    // Metrics JSON (and golden snapshots) is byte-identical to the
    // pre-sampling format.
    if (m.sampling.enabled()) {
        const SamplingStats &s = m.sampling;
        JsonObjectBuilder so;
        so.u64("samples", std::uint64_t(s.samples));
        so.u64("fastForward", s.fastForward);
        so.u64("warmup", s.warmup);
        so.u64("detail", s.detail);
        so.num("meanIpc", s.meanIpc);
        // A CI-less run (--samples=1) omits the dispersion keys
        // entirely: "unavailable" must not round-trip as a number.
        if (s.hasCi()) {
            so.num("ipcStdDev", s.ipcStdDev);
            so.num("ci95Half", s.ci95Half);
        }
        so.num("ffKips", s.ffKips);
        std::string ipcs = "[";
        for (std::size_t i = 0; i < s.sampleIpcs.size(); ++i) {
            if (i)
                ipcs += ", ";
            ipcs += jsonNum(s.sampleIpcs[i]);
        }
        ipcs += "]";
        so.field("sampleIpcs", ipcs);
        o.field("sampling", so.render(indent + 2));
    }
    return o;
}

// Parsing uses the shared reader (common/json.hh); missing keys keep
// their zero defaults so old archives stay readable.

double
numAt(const JsonValue &obj, const std::string &key)
{
    auto it = obj.object.find(key);
    return it != obj.object.end() ? it->second.num : 0.0;
}

std::uint64_t
u64At(const JsonValue &obj, const std::string &key)
{
    auto it = obj.object.find(key);
    if (it == obj.object.end())
        return 0;
    // Prefer the source lexeme: exact for integers above 2^53.
    const JsonValue &v = it->second;
    std::uint64_t exact = 0;
    if (v.isNumber() && u64FromLexeme(v.str, &exact))
        return exact;
    return static_cast<std::uint64_t>(v.num);
}

std::string
strAt(const JsonValue &obj, const std::string &key)
{
    auto it = obj.object.find(key);
    return it != obj.object.end() ? it->second.str : std::string();
}

} // namespace

std::string
metricsToJson(const Metrics &m, int indent)
{
    return metricsObject(m, indent).render(indent);
}

Metrics
metricsFromJson(const std::string &json)
{
    JsonValue root = parseJson(json);
    if (root.kind != JsonValue::Kind::Object)
        throw std::runtime_error("metricsFromJson: not a JSON object");

    // Tolerant versioning: a missing field is the unversioned v1
    // format; anything newer than this reader must be rejected rather
    // than half-read with silently-defaulted fields.
    std::uint64_t version =
        root.object.count("schemaVersion") ? u64At(root, "schemaVersion")
                                           : 1;
    if (version < 1 || version > std::uint64_t(kMetricsSchemaVersion))
        throw std::runtime_error(strprintf(
            "metricsFromJson: unsupported schemaVersion %llu (this "
            "reader supports 1..%d)",
            static_cast<unsigned long long>(version),
            kMetricsSchemaVersion));

    Metrics m;
    m.config = strAt(root, "config");
    m.workload = strAt(root, "workload");
    m.insts = u64At(root, "insts");
    m.cycles = u64At(root, "cycles");
    m.ipc = numAt(root, "ipc");
    m.cpi = numAt(root, "cpi");
    m.avgOutstanding = numAt(root, "avgOutstanding");
    m.avgLoadLatency = numAt(root, "avgLoadLatency");
    m.dramReads = u64At(root, "dramReads");
    m.iqOcc = numAt(root, "iqOcc");
    m.robOcc = numAt(root, "robOcc");
    m.lqOcc = numAt(root, "lqOcc");
    m.sqOcc = numAt(root, "sqOcc");
    m.rfOcc = numAt(root, "rfOcc");
    m.ltpOcc = numAt(root, "ltpOcc");
    m.ltpRegsOcc = numAt(root, "ltpRegsOcc");
    m.ltpLoadsOcc = numAt(root, "ltpLoadsOcc");
    m.ltpStoresOcc = numAt(root, "ltpStoresOcc");
    m.ltpEnabledFrac = numAt(root, "ltpEnabledFrac");
    m.parkedFrac = numAt(root, "parkedFrac");
    m.parked = u64At(root, "parked");
    m.unparked = u64At(root, "unparked");
    m.forcedUnparks = u64At(root, "forcedUnparks");
    m.pressureUnparks = u64At(root, "pressureUnparks");
    m.llpredAccuracy = numAt(root, "llpredAccuracy");
    m.bpAccuracy = numAt(root, "bpAccuracy");

    auto energy = root.object.find("energy");
    if (energy != root.object.end()) {
        m.energy.iq = numAt(energy->second, "iq");
        m.energy.rf = numAt(energy->second, "rf");
        m.energy.ltp = numAt(energy->second, "ltp");
    }

    m.ed2p = numAt(root, "ed2p");
    m.edp = numAt(root, "edp");

    auto sampling = root.object.find("sampling");
    if (sampling != root.object.end() && sampling->second.isObject()) {
        SamplingStats &s = m.sampling;
        s.samples = int(u64At(sampling->second, "samples"));
        s.fastForward = u64At(sampling->second, "fastForward");
        s.warmup = u64At(sampling->second, "warmup");
        s.detail = u64At(sampling->second, "detail");
        s.meanIpc = numAt(sampling->second, "meanIpc");
        // Absent dispersion keys mean "CI unavailable" (a n=1 run),
        // which reads back as NaN — not as a zero-width interval.
        double nan = std::numeric_limits<double>::quiet_NaN();
        s.ipcStdDev = sampling->second.object.count("ipcStdDev")
                          ? numAt(sampling->second, "ipcStdDev")
                          : nan;
        s.ci95Half = sampling->second.object.count("ci95Half")
                         ? numAt(sampling->second, "ci95Half")
                         : nan;
        s.ffKips = numAt(sampling->second, "ffKips");
        auto ipcs = sampling->second.object.find("sampleIpcs");
        if (ipcs != sampling->second.object.end() &&
            ipcs->second.isArray()) {
            for (const JsonValue &v : ipcs->second.array)
                s.sampleIpcs.push_back(v.num);
        }
    }

    auto smt = root.object.find("smt");
    if (smt != root.object.end() && smt->second.isObject()) {
        m.weightedSpeedup = numAt(smt->second, "weightedSpeedup");
        auto threads = smt->second.object.find("threads");
        if (threads != smt->second.object.end() &&
            threads->second.isArray()) {
            for (const JsonValue &tv : threads->second.array) {
                ThreadMetrics tm;
                tm.workload = strAt(tv, "workload");
                tm.insts = u64At(tv, "insts");
                tm.cycles = u64At(tv, "cycles");
                tm.ipc = numAt(tv, "ipc");
                m.threads.push_back(tm);
            }
        }
    }
    return m;
}

std::string
reportToJson(const SweepResult &result)
{
    std::string out = "{\n";
    out += "  \"sweep\": " + jsonQuote(result.name) + ",\n";
    out += "  \"threads\": " + std::to_string(result.threads) + ",\n";
    out += "  \"simulations\": " + std::to_string(result.simulations) +
           ",\n";
    out += "  \"wall_ms\": " +
           strprintf("%.3f", result.wallMs) + ",\n";
    out += "  \"results\": [\n";

    bool first = true;
    for (const std::string &row : result.grid.rows()) {
        for (const std::string &series : result.grid.series(row)) {
            if (!first)
                out += ",\n";
            first = false;
            out += "    {\n";
            out += "      \"row\": " + jsonQuote(row) + ",\n";
            out += "      \"series\": " + jsonQuote(series) + ",\n";
            out += "      \"metrics\": " +
                   metricsToJson(result.grid.at(row, series), 6) + "\n";
            out += "    }";
        }
    }
    out += "\n  ]\n}\n";
    return out;
}

namespace {

/** RFC 4180 quoting for fields that contain a delimiter. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
reportToCsv(const SweepResult &result)
{
    // Per-thread breakdowns ride along as semicolon-joined lists in
    // tid order, so the table stays rectangular whatever mix of
    // single-threaded and SMT cells a sweep produces.
    auto joinThreads = [](const Metrics &m, auto &&field) {
        std::string out;
        for (std::size_t i = 0; i < m.threads.size(); ++i) {
            if (i)
                out += ';';
            out += field(m.threads[i]);
        }
        return out;
    };
    std::ostringstream out;
    out << "row,series,config,workload,insts,cycles,ipc,cpi,"
        << "avgOutstanding,avgLoadLatency,dramReads,iqOcc,rfOcc,ltpOcc,"
        << "parkedFrac,ed2p,edp,"
        << "threads,threadWorkloads,threadInsts,threadCycles,"
        << "threadIpcs,weightedSpeedup,samples,ipcCi95\n";
    for (const std::string &row : result.grid.rows()) {
        for (const std::string &series : result.grid.series(row)) {
            const Metrics &m = result.grid.at(row, series);
            out << csvField(row) << ',' << csvField(series) << ','
                << csvField(m.config) << ',' << csvField(m.workload)
                << ',' << m.insts << ',' << m.cycles << ','
                << m.ipc << ',' << m.cpi << ',' << m.avgOutstanding << ','
                << m.avgLoadLatency << ',' << m.dramReads << ','
                << m.iqOcc << ',' << m.rfOcc << ',' << m.ltpOcc << ','
                << m.parkedFrac << ',' << m.ed2p << ',' << m.edp << ','
                << m.threads.size() << ','
                << csvField(joinThreads(
                       m, [](const ThreadMetrics &t) {
                           return t.workload;
                       }))
                << ','
                << joinThreads(m,
                               [](const ThreadMetrics &t) {
                                   return std::to_string(t.insts);
                               })
                << ','
                << joinThreads(m,
                               [](const ThreadMetrics &t) {
                                   return std::to_string(t.cycles);
                               })
                << ','
                << joinThreads(m,
                               [](const ThreadMetrics &t) {
                                   std::ostringstream v;
                                   v << t.ipc;
                                   return v.str();
                               })
                << ',' << m.weightedSpeedup << ','
                << m.sampling.samples << ',';
            // Empty CI field = unavailable (non-sampled row, or a
            // sampled run with too few samples for an interval).
            if (m.sampling.hasCi())
                out << m.sampling.ci95Half;
            out << '\n';
        }
    }
    return out.str();
}

bool
isViewName(const std::string &view)
{
    if (view == "perf" || view == "ed2p")
        return true;
    static const JsonValue report = parseJson(metricsToJson(Metrics{}));
    auto it = report.object.find(view);
    return view != "schemaVersion" && it != report.object.end() &&
           it->second.isNumber();
}

std::string
renderViews(const SweepResult &result,
            const std::vector<std::string> &views)
{
    // Rows, columns and each row's series, by first declaration.
    std::vector<std::string> rows, columns;
    std::map<std::string, std::vector<std::string>> rowSeries;
    auto addOnce = [](std::vector<std::string> &v, const std::string &s) {
        if (std::find(v.begin(), v.end(), s) == v.end())
            v.push_back(s);
    };
    for (const auto &[row, series] : result.grid.order()) {
        addOnce(rows, row);
        addOnce(columns, series);
        rowSeries[row].push_back(series);
    }

    auto reference = [&](const std::string &row) -> const Metrics * {
        std::size_t bar = row.rfind('|');
        std::string base =
            bar == std::string::npos ? "" : row.substr(0, bar) + "|base";
        auto it = rowSeries.find(base);
        if (it == rowSeries.end())
            it = rowSeries.find(row);
        return &result.grid.at(it->first, it->second.front());
    };

    // The report's integer counters (the o.u64 keys of metricsObject)
    // print exactly, every other key to 4 decimals.
    static const std::set<std::string> counters = {
        "insts",    "cycles",        "dramReads",      "parked",
        "unparked", "forcedUnparks", "pressureUnparks"};
    std::string out;
    for (const std::string &view : views) {
        std::vector<std::string> header = {"row"};
        header.insert(header.end(), columns.begin(), columns.end());
        Table t(header);
        for (const std::string &row : rows) {
            const Metrics *ref = reference(row);
            std::vector<std::string> cells = {row};
            for (const std::string &s : columns) {
                if (!result.grid.has(row, s)) {
                    cells.push_back("-");
                    continue;
                }
                const Metrics &m = result.grid.at(row, s);
                if (view == "perf") {
                    cells.push_back(Table::pct(m.perfDeltaPct(*ref)));
                } else if (view == "ed2p") {
                    cells.push_back(Table::pct(m.ed2pDeltaPct(*ref)));
                } else {
                    JsonValue report = parseJson(metricsToJson(m));
                    const JsonValue &v = report.object.at(view);
                    cells.push_back(counters.count(view)
                                        ? v.str
                                        : Table::num(v.num, 4));
                }
            }
            t.addRow(std::move(cells));
        }
        std::string what = view == "ipc"    ? "IPC"
                           : view == "perf" ? "perf % vs reference"
                           : view == "ed2p" ? "IQ/RF ED2P % vs reference"
                                            : view;
        out += strprintf("\n== %s: %s by (row, series) — %zu sims, %d "
                         "threads, %.0f ms ==\n",
                         result.name.c_str(), what.c_str(),
                         result.simulations, result.threads,
                         result.wallMs) +
               t.toString();
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << text;
}

std::string
writeJsonReport(const SweepResult &result, const std::string &path)
{
    std::string target =
        path == "1" ? "BENCH_" + result.name + ".json" : path;
    writeFile(target, reportToJson(result));
    std::printf("json report (%zu sims, %d threads, %.0f ms) written "
                "to %s\n",
                result.simulations, result.threads, result.wallMs,
                target.c_str());
    return target;
}

std::string
writeCsvReport(const SweepResult &result, const std::string &path)
{
    std::string target =
        path == "1" ? "BENCH_" + result.name + ".csv" : path;
    writeFile(target, reportToCsv(result));
    std::printf("csv written to %s\n", target.c_str());
    return target;
}

} // namespace ltp
