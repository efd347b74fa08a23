#include "sim/report.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace ltp {

namespace {

/** One top-level number of the Metrics report: an exact integer
 *  counter or a double (exactly one member pointer is set). */
struct ScalarField
{
    const char *key;
    std::uint64_t Metrics::*count;
    double Metrics::*real;
};

constexpr ScalarField
counter(const char *key, std::uint64_t Metrics::*f)
{
    return {key, f, nullptr};
}

constexpr ScalarField
real(const char *key, double Metrics::*f)
{
    return {key, nullptr, f};
}

/** The report's top-level numbers: one list for the writer, the
 *  reader and the views. */
constexpr ScalarField kScalars[] = {
    counter("insts", &Metrics::insts),
    counter("cycles", &Metrics::cycles),
    real("ipc", &Metrics::ipc),
    real("cpi", &Metrics::cpi),
    real("avgOutstanding", &Metrics::avgOutstanding),
    real("avgLoadLatency", &Metrics::avgLoadLatency),
    counter("dramReads", &Metrics::dramReads),
    real("iqOcc", &Metrics::iqOcc),
    real("robOcc", &Metrics::robOcc),
    real("lqOcc", &Metrics::lqOcc),
    real("sqOcc", &Metrics::sqOcc),
    real("rfOcc", &Metrics::rfOcc),
    real("ltpOcc", &Metrics::ltpOcc),
    real("ltpRegsOcc", &Metrics::ltpRegsOcc),
    real("ltpLoadsOcc", &Metrics::ltpLoadsOcc),
    real("ltpStoresOcc", &Metrics::ltpStoresOcc),
    real("ltpEnabledFrac", &Metrics::ltpEnabledFrac),
    real("parkedFrac", &Metrics::parkedFrac),
    counter("parked", &Metrics::parked),
    counter("unparked", &Metrics::unparked),
    counter("forcedUnparks", &Metrics::forcedUnparks),
    counter("pressureUnparks", &Metrics::pressureUnparks),
    real("llpredAccuracy", &Metrics::llpredAccuracy),
    real("bpAccuracy", &Metrics::bpAccuracy),
    real("ed2p", &Metrics::ed2p),
    real("edp", &Metrics::edp),
};

/** The top-level number named @p key, or null. */
const ScalarField *
scalarField(const std::string &key)
{
    for (const ScalarField &f : kScalars)
        if (key == f.key)
            return &f;
    return nullptr;
}

// Parsing reads the tree the shared reader (common/json.hh) built;
// missing keys keep their zero defaults so old archives stay readable.

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
    return it == obj.object.end() ? 0 : jsonToU64(it->second);
}

std::string
strAt(const JsonValue &obj, const std::string &key)
{
    auto it = obj.object.find(key);
    return it != obj.object.end() ? it->second.str : std::string();
}

} // namespace

JsonValue
metricsTree(const Metrics &m)
{
    JsonValue o = jsonObject();
    auto &f = o.object;
    f["schemaVersion"] = jsonU64(kMetricsSchemaVersion);
    f["config"] = jsonStr(m.config);
    f["workload"] = jsonStr(m.workload);
    for (const ScalarField &sf : kScalars)
        f[sf.key] = sf.count ? jsonU64(m.*sf.count) : jsonDouble(m.*sf.real);
    f["energy"] = jsonObject({{"iq", jsonDouble(m.energy.iq)},
                              {"rf", jsonDouble(m.energy.rf)},
                              {"ltp", jsonDouble(m.energy.ltp)}});

    // SMT breakdown: only for genuinely multi-context runs, so a
    // single-threaded report carries no `smt` block.
    if (m.threads.size() > 1) {
        JsonValue threads = jsonArray();
        for (const ThreadMetrics &tm : m.threads)
            threads.array.push_back(
                jsonObject({{"workload", jsonStr(tm.workload)},
                            {"insts", jsonU64(tm.insts)},
                            {"cycles", jsonU64(tm.cycles)},
                            {"ipc", jsonDouble(tm.ipc)}}));
        JsonValue &smt = f["smt"] = jsonObject(
            {{"weightedSpeedup", jsonDouble(m.weightedSpeedup)}});
        smt.object["threads"] = std::move(threads);
    }

    // Sampling summary: only for sampled runs.
    if (m.sampling.enabled()) {
        const SamplingStats &s = m.sampling;
        JsonValue so =
            jsonObject({{"samples", jsonU64(std::uint64_t(s.samples))},
                        {"fastForward", jsonU64(s.fastForward)},
                        {"warmup", jsonU64(s.warmup)},
                        {"detail", jsonU64(s.detail)},
                        {"meanIpc", jsonDouble(s.meanIpc)},
                        {"ffKips", jsonDouble(s.ffKips)}});
        // A CI-less run (--samples=1) omits the dispersion keys
        // entirely: "unavailable" must not round-trip as a number.
        if (s.hasCi()) {
            so.object["ipcStdDev"] = jsonDouble(s.ipcStdDev);
            so.object["ci95Half"] = jsonDouble(s.ci95Half);
        }
        JsonValue &ipcs = so.object["sampleIpcs"] = jsonArray();
        for (double ipc : s.sampleIpcs)
            ipcs.array.push_back(jsonDouble(ipc));
        f["sampling"] = std::move(so);
    }
    return o;
}

std::string
metricsToJson(const Metrics &m, int indent)
{
    return writeJson(metricsTree(m), indent);
}

Metrics
metricsFromJson(const JsonValue &root)
{
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
    for (const ScalarField &f : kScalars) {
        if (f.count)
            m.*f.count = u64At(root, f.key);
        else
            m.*f.real = numAt(root, f.key);
    }

    auto energy = root.object.find("energy");
    if (energy != root.object.end()) {
        m.energy.iq = numAt(energy->second, "iq");
        m.energy.rf = numAt(energy->second, "rf");
        m.energy.ltp = numAt(energy->second, "ltp");
    }

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
    // Host time to the microsecond: a report field, not a model value.
    JsonValue wall = jsonDouble(result.wallMs);
    wall.str = strprintf("%.3f", result.wallMs);
    JsonValue doc = jsonObject(
        {{"sweep", jsonStr(result.name)},
         {"threads", jsonU64(std::uint64_t(result.threads))},
         {"simulations", jsonU64(result.simulations)},
         {"wall_ms", wall}});
    JsonValue &results = doc.object["results"] = jsonArray();
    for (const std::string &row : result.grid.rows())
        for (const std::string &series : result.grid.series(row)) {
            JsonValue &cell = results.array.emplace_back(jsonObject(
                {{"row", jsonStr(row)}, {"series", jsonStr(series)}}));
            cell.object["metrics"] = metricsTree(result.grid.at(row, series));
        }
    return writeJson(doc) + "\n";
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
    // Numbers print as their JSON lexemes, so a CSV value reads back
    // to the same double the JSON report holds.
    auto num = [](double v) { return jsonDouble(v).str; };
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
    std::string out = "row,series,config,workload";
    for (const ScalarField &f : kScalars)
        out += std::string(",") + f.key;
    out += ",threads,threadWorkloads,threadInsts,threadCycles,"
           "threadIpcs,weightedSpeedup,samples,ipcCi95\n";
    for (const std::string &row : result.grid.rows()) {
        for (const std::string &series : result.grid.series(row)) {
            const Metrics &m = result.grid.at(row, series);
            out += csvField(row) + ',' + csvField(series) + ',' +
                   csvField(m.config) + ',' + csvField(m.workload);
            for (const ScalarField &f : kScalars)
                out += ',' + (f.count ? std::to_string(m.*f.count)
                                      : num(m.*f.real));
            out += ',' + std::to_string(m.threads.size()) + ',' +
                   csvField(joinThreads(m,
                                        [](const ThreadMetrics &t) {
                                            return t.workload;
                                        })) +
                   ',' +
                   joinThreads(m,
                               [](const ThreadMetrics &t) {
                                   return std::to_string(t.insts);
                               }) +
                   ',' +
                   joinThreads(m,
                               [](const ThreadMetrics &t) {
                                   return std::to_string(t.cycles);
                               }) +
                   ',' +
                   joinThreads(m,
                               [&num](const ThreadMetrics &t) {
                                   return num(t.ipc);
                               }) +
                   ',' + num(m.weightedSpeedup) + ',' +
                   std::to_string(m.sampling.samples) + ',';
            // Empty CI field = unavailable (non-sampled row, or a
            // sampled run with too few samples for an interval).
            if (m.sampling.hasCi())
                out += num(m.sampling.ci95Half);
            out += '\n';
        }
    }
    return out;
}

bool
isViewName(const std::string &view)
{
    return view == "perf" || view == "ed2p" || scalarField(view);
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

    std::string out;
    for (const std::string &view : views) {
        const ScalarField *field = scalarField(view);
        if (!field && view != "perf" && view != "ed2p")
            throw std::out_of_range("renderViews: unknown view '" + view +
                                    "'");
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
                    // Counters print exactly, every other key to 4
                    // decimals.
                    cells.push_back(field->count
                                        ? std::to_string(m.*field->count)
                                        : Table::num(m.*field->real, 4));
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

} // namespace ltp
