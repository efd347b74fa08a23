#include "sim/scenario.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "common/file_io.hh"
#include "sim/report.hh"
#include "trace/suite.hh"
#include "trace/trace_workload.hh"

namespace ltp {

// ---------------------------------------------------------------------------
// Panels
// ---------------------------------------------------------------------------

Panels
classifyPanels(const RunLengths &lengths, std::uint64_t seed, int threads,
               ExecBackendPtr backend)
{
    Panels p;
    RunLengths quick = lengths;
    quick.detail = std::min<std::uint64_t>(lengths.detail, 20000);
    p.groups = classifySuite(quick, seed, threads, std::move(backend));
    return p;
}

std::vector<std::string>
panelKernels(const Panels &panels, const std::string &panel)
{
    if (panel == "mlp_sensitive")
        return panels.groups.sensitive;
    if (panel == "mlp_insensitive")
        return panels.groups.insensitive;
    return {panel};
}

std::vector<std::string>
panelNames(const Panels &p)
{
    return {p.astarLike, p.milcLike, "mlp_sensitive", "mlp_insensitive"};
}

std::string
panelRow(const std::string &panel, const std::string &point)
{
    return panel + "|" + point;
}

// ---------------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void
bad(const std::string &what)
{
    throw std::runtime_error("scenario: " + what);
}

[[noreturn]] void
wrongKind(const JsonValue &v, const char *want, const std::string &path)
{
    bad(std::string("expected ") + want + " at " + path + ", got " +
        JsonValue::kindName(v.kind));
}

/** Reject keys outside @p known, naming the offending path. */
void
checkKeys(const JsonValue &obj, const std::vector<std::string> &known,
          const std::string &where)
{
    for (const auto &[key, val] : obj.object) {
        (void)val;
        if (std::find(known.begin(), known.end(), key) == known.end())
            bad("unknown key '" +
                (where.empty() ? key : where + "." + key) + "'");
    }
}

const JsonValue *
find(const JsonValue &obj, const char *key)
{
    auto it = obj.object.find(key);
    return it == obj.object.end() ? nullptr : &it->second;
}

std::string
strAt(const JsonValue &obj, const char *key, const std::string &where)
{
    const JsonValue *v = find(obj, key);
    if (!v)
        bad("missing required key '" + where + "." + key + "'");
    if (!v->isString())
        wrongKind(*v, "a string", where + "." + key);
    return v->str;
}

/** Checked non-negative integer from a JSON number (via its lexeme,
 *  so fractions and signs are rejected rather than truncated). */
std::uint64_t
u64FromJson(const JsonValue &v, const std::string &path)
{
    if (!v.isNumber())
        wrongKind(v, "a number", path);
    std::uint64_t out = 0;
    if (!u64FromLexeme(v.str, &out))
        bad("expected a non-negative integer at " + path + ", got '" +
            v.str + "'");
    return out;
}

/** A sweep value / axis label: a number lexeme or a plain string. */
std::string
scalarLexeme(const JsonValue &v, const std::string &path)
{
    if (v.isNumber())
        return v.str;
    if (v.isString())
        return v.str;
    wrongKind(v, "a number or string", path);
}

std::vector<std::string>
stringList(const JsonValue &v, const std::string &path)
{
    if (!v.isArray())
        wrongKind(v, "an array", path);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < v.array.size(); ++i) {
        const JsonValue &e = v.array[i];
        if (!e.isString())
            wrongKind(e, "a string",
                      path + "[" + std::to_string(i) + "]");
        out.push_back(e.str);
    }
    return out;
}

bool
knownKernel(const std::string &name)
{
    for (const SuiteEntry &e : kernelSuite())
        if (e.name == name)
            return true;
    return false;
}

/** Resolve a (possibly relative) path against the scenario file dir. */
std::string
resolvePath(const std::string &baseDir, const std::string &path)
{
    if (baseDir.empty() || path.empty() || path[0] == '/')
        return path;
    return baseDir + "/" + path;
}

/** Validate (and cache) one `.lttr` file, naming @p where on errors. */
void
checkTraceFile(const std::string &path, const std::string &where)
{
    try {
        loadTraceCached(path);
    } catch (const std::runtime_error &e) {
        bad(std::string(e.what()) + " (at " + where + ")");
    }
}

void checkSmtMembers(std::vector<std::string> &members,
                     const std::string &at, const std::string &baseDir);

/**
 * Validate a workload-name list: registered kernels, `trace:<path>`
 * replays, whose relative paths are resolved in place against
 * @p baseDir and whose files must load, or `smt:<a>+<b>` tuples of
 * those (what an exported multiprogrammed job names).
 */
void
checkKernels(std::vector<std::string> &names, const std::string &where,
             const std::string &baseDir)
{
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::string at = where + "[" + std::to_string(i) + "]";
        if (isTraceName(names[i])) {
            names[i] =
                traceName(resolvePath(baseDir, tracePath(names[i])));
            checkTraceFile(tracePath(names[i]), at);
        } else if (isSmtName(names[i])) {
            std::vector<std::string> members = smtMembers(names[i]);
            checkSmtMembers(members, at, baseDir);
            names[i] = smtName(members);
        } else if (!knownKernel(names[i])) {
            bad("unknown kernel '" + names[i] + "' at " + at);
        }
    }
}

/** Validate the co-running members of one SMT tuple at @p at. */
void
checkSmtMembers(std::vector<std::string> &members, const std::string &at,
                const std::string &baseDir)
{
    if (members.size() < 2)
        bad(at + " needs at least two co-running workloads");
    for (const std::string &member : members)
        if (isSmtName(member))
            bad(at + " member '" + member + "' is itself a tuple");
    checkKernels(members, at, baseDir);
    // '+' is the smt:<a>+<b> separator; a resolved member containing
    // one (a trace under a '+'-named directory) could not be re-parsed
    // from the tuple name.
    for (const std::string &member : members)
        if (member.find('+') != std::string::npos)
            bad(at + " member '" + member +
                "' contains '+', which the smt: tuple syntax reserves "
                "as its separator (rename the path)");
}

} // namespace

RunLengths
parseLengths(const JsonValue &v, const std::string &where)
{
    if (v.isString()) {
        if (v.str == "default")
            return RunLengths{};
        if (v.str == "quick")
            return RunLengths::quick();
        if (v.str == "bench")
            return RunLengths::bench();
        bad("unknown lengths preset '" + v.str + "' at " + where +
            " (expected default|quick|bench or an object)");
    }
    if (!v.isObject())
        wrongKind(v, "an object or preset name", where);
    checkKeys(v, {"funcWarm", "pipeWarm", "detail"}, where);
    RunLengths out;
    auto u64At = [&](const char *key, std::uint64_t dflt) {
        const JsonValue *f = find(v, key);
        return f ? u64FromJson(*f, where + "." + key) : dflt;
    };
    out.funcWarm = u64At("funcWarm", out.funcWarm);
    out.pipeWarm = u64At("pipeWarm", out.pipeWarm);
    out.detail = u64At("detail", out.detail);
    return out;
}

SamplePlan
parseSampling(const JsonValue &v, const std::string &where)
{
    if (v.isString()) {
        if (v.str == "default")
            return SamplePlan::defaults();
        bad("unknown sampling preset '" + v.str + "' at " + where +
            " (expected \"default\" or an object)");
    }
    if (!v.isObject())
        wrongKind(v, "an object or preset name", where);
    checkKeys(v, {"fastForward", "warmup", "detail", "samples"}, where);
    SamplePlan out = SamplePlan::defaults();
    auto u64At = [&](const char *key, std::uint64_t dflt) {
        const JsonValue *f = find(v, key);
        return f ? u64FromJson(*f, where + "." + key) : dflt;
    };
    out.fastForward = u64At("fastForward", out.fastForward);
    out.warmup = u64At("warmup", out.warmup);
    out.detail = u64At("detail", out.detail);
    out.samples = int(u64At("samples", std::uint64_t(out.samples)));
    if (out.samples <= 0)
        bad(where + ".samples must be positive");
    if (out.detail == 0)
        bad(where + ".detail must be positive");
    return out;
}

namespace {

void
parseWorkloads(Scenario &sc, const JsonValue &v,
               const std::string &baseDir)
{
    if (!v.isObject())
        wrongKind(v, "an object", "workloads");
    checkKeys(v, {"kernels", "panels", "groups", "traces", "pairs"},
              "workloads");
    int forms = int(find(v, "kernels") != nullptr) +
                int(find(v, "panels") != nullptr) +
                int(find(v, "groups") != nullptr) +
                int(find(v, "traces") != nullptr) +
                int(find(v, "pairs") != nullptr);
    if (forms != 1)
        bad("workloads needs exactly one of kernels|panels|groups|"
            "traces|pairs");

    if (const JsonValue *k = find(v, "kernels")) {
        sc.workloadKind = Scenario::WorkloadKind::Kernels;
        sc.kernels = stringList(*k, "workloads.kernels");
        if (sc.kernels.empty())
            bad("workloads.kernels must not be empty");
        checkKernels(sc.kernels, "workloads.kernels", baseDir);
    } else if (const JsonValue *t = find(v, "traces")) {
        sc.workloadKind = Scenario::WorkloadKind::Traces;
        sc.traces = stringList(*t, "workloads.traces");
        if (sc.traces.empty())
            bad("workloads.traces must not be empty");
        for (std::size_t i = 0; i < sc.traces.size(); ++i) {
            sc.traces[i] =
                resolvePath(baseDir, tracePath(sc.traces[i]));
            checkTraceFile(sc.traces[i], "workloads.traces[" +
                                             std::to_string(i) + "]");
        }
    } else if (const JsonValue *p = find(v, "panels")) {
        sc.workloadKind = Scenario::WorkloadKind::Panels;
        if (p->isBool() && p->boolean)
            return; // all four paper panels
        sc.panels = stringList(*p, "workloads.panels");
        if (sc.panels.empty())
            bad("workloads.panels must not be empty");
        for (std::size_t i = 0; i < sc.panels.size(); ++i) {
            const std::string &name = sc.panels[i];
            if (name != "mlp_sensitive" && name != "mlp_insensitive" &&
                !knownKernel(name))
                bad("unknown panel '" + name + "' at workloads.panels[" +
                    std::to_string(i) +
                    "] (a kernel name, mlp_sensitive, or "
                    "mlp_insensitive)");
        }
    } else if (const JsonValue *p = find(v, "pairs")) {
        sc.workloadKind = Scenario::WorkloadKind::Pairs;
        if (!p->isArray() || p->array.empty())
            bad("workloads.pairs must be a non-empty array of kernel "
                "tuples");
        for (std::size_t i = 0; i < p->array.size(); ++i) {
            std::string at = "workloads.pairs[" + std::to_string(i) +
                             "]";
            std::vector<std::string> members = stringList(p->array[i],
                                                          at);
            checkSmtMembers(members, at, baseDir);
            sc.pairs.push_back(std::move(members));
        }
    } else if (const JsonValue *g = find(v, "groups")) {
        sc.workloadKind = Scenario::WorkloadKind::Groups;
        if (!g->isObject())
            wrongKind(*g, "an object", "workloads.groups");
        for (const auto &[label, list] : g->object) {
            std::vector<std::string> ks =
                stringList(list, "workloads.groups." + label);
            if (ks.empty())
                bad("workloads.groups." + label + " must not be empty");
            checkKernels(ks, "workloads.groups." + label, baseDir);
            sc.groups.emplace_back(label, ks);
        }
        if (sc.groups.empty())
            bad("workloads.groups must not be empty");
    }
}

ScenarioConfig
parseConfig(const JsonValue &v, std::size_t index)
{
    std::string where = "configs[" + std::to_string(index) + "]";
    if (!v.isObject())
        wrongKind(v, "an object", where);
    checkKeys(v, {"series", "preset", "mode", "name", "set", "base"},
              where);

    ScenarioConfig sc;
    sc.where = where;
    sc.series = strAt(v, "series", where);
    if (const JsonValue *p = find(v, "preset")) {
        if (!p->isString())
            wrongKind(*p, "a string", where + ".preset");
        sc.preset = p->str;
        if (sc.preset != "baseline" && sc.preset != "ltpProposal" &&
            sc.preset != "limitStudy")
            bad("unknown preset '" + sc.preset + "' at " + where +
                ".preset (expected baseline|ltpProposal|limitStudy)");
    }
    if (const JsonValue *m = find(v, "mode")) {
        if (!m->isString())
            wrongKind(*m, "a string", where + ".mode");
        sc.mode = parseLtpMode(m->str, where + ".mode");
        sc.hasMode = true;
    }
    if (sc.preset == "limitStudy" && !sc.hasMode)
        bad("preset limitStudy requires a mode at " + where);
    if (sc.preset == "baseline" && sc.hasMode)
        bad("mode at " + where +
            ".mode is only valid with preset ltpProposal or limitStudy "
            "(use \"set\": {\"core.ltp.mode\": ...} to force it on the "
            "baseline)");
    if (const JsonValue *n = find(v, "name")) {
        if (!n->isString())
            wrongKind(*n, "a string", where + ".name");
        sc.nameOverride = n->str;
    }
    if (const JsonValue *s = find(v, "set")) {
        if (!s->isObject())
            wrongKind(*s, "an object", where + ".set");
        sc.set = *s;
    }
    if (const JsonValue *b = find(v, "base")) {
        if (!b->isBool())
            wrongKind(*b, "a boolean", where + ".base");
        sc.base = b->boolean;
    }
    return sc;
}

/**
 * The `sweep` block.  A `baseline {series, value}` desugars into a base
 * copy of that series pinned at `value`, inserted before every other
 * config so it is the rows' reference cell.
 */
ScenarioSweep
parseSweep(const JsonValue &v, std::vector<ScenarioConfig> &configs)
{
    if (!v.isObject())
        wrongKind(v, "an object", "sweep");
    checkKeys(v, {"path", "values", "baseline"}, "sweep");

    ScenarioSweep sw;
    const JsonValue *path = find(v, "path");
    bool many = path && path->isArray();
    sw.paths = many ? stringList(*path, "sweep.path")
                    : std::vector<std::string>{strAt(v, "path", "sweep")};
    if (sw.paths.empty())
        bad("sweep.path must not be an empty array");
    std::vector<std::string> known = configPaths();
    for (std::size_t i = 0; i < sw.paths.size(); ++i)
        if (std::find(known.begin(), known.end(), sw.paths[i]) ==
            known.end())
            bad("unknown config path '" + sw.paths[i] + "' at sweep.path" +
                (many ? "[" + std::to_string(i) + "]" : ""));
    const JsonValue *vals = find(v, "values");
    if (!vals)
        bad("missing required key 'sweep.values'");
    if (!vals->isArray() || vals->array.empty())
        bad("sweep.values must be a non-empty array");
    for (std::size_t i = 0; i < vals->array.size(); ++i)
        sw.values.push_back(scalarLexeme(
            vals->array[i], "sweep.values[" + std::to_string(i) + "]"));

    if (const JsonValue *b = find(v, "baseline")) {
        if (!b->isObject())
            wrongKind(*b, "an object", "sweep.baseline");
        checkKeys(*b, {"series", "value"}, "sweep.baseline");
        std::string series = strAt(*b, "series", "sweep.baseline");
        const JsonValue *val = find(*b, "value");
        if (!val)
            bad("missing required key 'sweep.baseline.value'");
        auto it = std::find_if(configs.begin(), configs.end(),
                               [&](const ScenarioConfig &c) {
                                   return c.series == series && !c.base;
                               });
        if (it == configs.end())
            bad("sweep.baseline.series '" + series +
                "' does not name any configs[].series");
        ScenarioConfig base = *it;
        base.base = true;
        base.baseValue = scalarLexeme(*val, "sweep.baseline.value");
        configs.insert(configs.begin(), std::move(base));
    }
    return sw;
}

SweepJob
parseJob(const JsonValue &v, std::size_t index,
         const std::string &baseDir)
{
    std::string where = "jobs[" + std::to_string(index) + "]";
    if (!v.isObject())
        wrongKind(v, "an object", where);
    checkKeys(v, {"row", "series", "label", "kernels", "config"}, where);

    SweepJob job;
    job.row = strAt(v, "row", where);
    job.series = strAt(v, "series", where);
    const JsonValue *ks = find(v, "kernels");
    if (!ks)
        bad("missing required key '" + where + ".kernels'");
    job.kernels = stringList(*ks, where + ".kernels");
    if (job.kernels.empty())
        bad(where + ".kernels must not be empty");
    checkKernels(job.kernels, where + ".kernels", baseDir);
    if (const JsonValue *l = find(v, "label")) {
        if (!l->isString())
            wrongKind(*l, "a string", where + ".label");
        job.label = l->str;
    } else if (job.kernels.size() == 1) {
        job.label = job.kernels[0];
    } else {
        bad("missing required key '" + where +
            ".label' (required for multi-kernel jobs)");
    }
    const JsonValue *cfg = find(v, "config");
    if (!cfg)
        bad("missing required key '" + where + ".config'");
    applyConfigJson(job.cfg, *cfg, where + ".config");
    return job;
}

} // namespace

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

SimConfig
Scenario::buildConfig(const ScenarioConfig &sc,
                      const std::string &value) const
{
    SimConfig cfg;
    if (sc.preset == "baseline")
        cfg = SimConfig::baseline();
    else if (sc.preset == "ltpProposal")
        cfg = SimConfig::ltpProposal(sc.hasMode ? sc.mode : LtpMode::NU);
    else
        cfg = SimConfig::limitStudy(sc.mode);
    cfg.seed = seed;
    if (sc.set.isObject())
        applyConfigJson(cfg, sc.set, sc.where + ".set");
    if (!sc.nameOverride.empty())
        cfg.name = sc.nameOverride;
    if (!value.empty())
        for (const std::string &path : sweep.paths)
            applyOverride(cfg, path, value);
    return cfg;
}

SweepSpec
Scenario::compile(int threads, ExecBackendPtr backend) const
{
    SweepSpec spec;
    spec.name = name;
    spec.lengths = lengths;
    spec.sampling = sampling;

    if (explicitJobs) {
        spec.jobs = jobs;
        // Exported jobs carry their own seeds; an explicit scenario or
        // driver seed overrides them all.
        if (hasSeed)
            for (SweepJob &job : spec.jobs)
                job.cfg.seed = seed;
        return spec;
    }

    // Expand workloads into (label, kernel list) pairs, paper order.
    std::vector<std::pair<std::string, std::vector<std::string>>> work;
    switch (workloadKind) {
      case WorkloadKind::Kernels:
        for (const std::string &k : kernels)
            work.emplace_back(isTraceName(k) ? traceLabel(tracePath(k))
                                             : k,
                              std::vector<std::string>{k});
        break;
      case WorkloadKind::Traces:
        for (const std::string &path : traces)
            work.emplace_back(traceLabel(path),
                              std::vector<std::string>{traceName(path)});
        break;
      case WorkloadKind::Groups:
        for (const auto &[label, ks] : groups)
            work.emplace_back(label, ks);
        break;
      case WorkloadKind::Pairs:
        // One multiprogrammed simulation per tuple: the smt: name
        // carries the whole co-schedule (the Simulator raises
        // core.numThreads to the tuple size), and the row label is
        // the '+'-joined member list.
        for (const std::vector<std::string> &members : pairs) {
            std::string label = members[0];
            for (std::size_t i = 1; i < members.size(); ++i)
                label += "+" + members[i];
            work.emplace_back(label,
                              std::vector<std::string>{smtName(members)});
        }
        break;
      case WorkloadKind::Panels: {
        Panels p = classifyPanels(lengths, seed, threads, backend);
        std::vector<std::string> ids =
            panels.empty() ? panelNames(p) : panels;
        for (const std::string &id : ids)
            work.emplace_back(id, panelKernels(p, id));
        break;
      }
      case WorkloadKind::None:
        bad("no workloads to compile");
    }

    // Row labels key the ResultGrid; a duplicate (e.g. two trace files
    // with the same stem) would silently overwrite cells.
    for (std::size_t i = 0; i < work.size(); ++i)
        for (std::size_t j = i + 1; j < work.size(); ++j)
            if (work[i].first == work[j].first)
                bad("duplicate workload row label '" + work[i].first +
                    "' (rename one of the colliding trace files or "
                    "kernels)");

    // Per workload: its base configs in the "|base" row, then every
    // swept config at each sweep value ("" = the one unswept row).
    std::vector<std::string> points =
        hasSweep ? sweep.values : std::vector<std::string>{""};
    for (const auto &[label, ks] : work) {
        for (const ScenarioConfig &sc : configs)
            if (sc.base)
                spec.addGroup(panelRow(label, "base"), sc.series,
                              buildConfig(sc, sc.baseValue), ks, label);
        for (const std::string &value : points)
            for (const ScenarioConfig &sc : configs)
                if (!sc.base)
                    spec.addGroup(value.empty() ? label
                                                : panelRow(label, value),
                                  sc.series, buildConfig(sc, value), ks,
                                  label);
    }
    return spec;
}

Scenario
scenarioFromJson(const std::string &text, const std::string &baseDir)
{
    JsonValue root = parseJson(text);
    if (!root.isObject())
        wrongKind(root, "an object", "<top level>");
    checkKeys(root,
              {"name", "lengths", "sampling", "seed", "workloads",
               "configs", "sweep", "jobs", "views"},
              "");

    Scenario sc;
    sc.name = strAt(root, "name", "<top level>");
    sc.views = scenarioViews(root);
    if (const JsonValue *l = find(root, "lengths"))
        sc.lengths = parseLengths(*l, "lengths");
    if (const JsonValue *sp = find(root, "sampling"))
        sc.sampling = parseSampling(*sp, "sampling");
    if (const JsonValue *s = find(root, "seed")) {
        sc.seed = u64FromJson(*s, "seed");
        sc.hasSeed = true;
    }

    if (const JsonValue *jobs = find(root, "jobs")) {
        for (const char *key : {"workloads", "configs", "sweep"})
            if (find(root, key))
                bad(std::string("'jobs' and '") + key +
                    "' are mutually exclusive");
        if (!jobs->isArray() || jobs->array.empty())
            bad("jobs must be a non-empty array");
        sc.explicitJobs = true;
        for (std::size_t i = 0; i < jobs->array.size(); ++i)
            sc.jobs.push_back(parseJob(jobs->array[i], i, baseDir));
        return sc;
    }

    const JsonValue *w = find(root, "workloads");
    if (!w)
        bad("missing required key 'workloads' (or an explicit 'jobs' "
            "array)");
    parseWorkloads(sc, *w, baseDir);

    const JsonValue *configs = find(root, "configs");
    if (!configs)
        bad("missing required key 'configs'");
    if (!configs->isArray() || configs->array.empty())
        bad("configs must be a non-empty array");
    for (std::size_t i = 0; i < configs->array.size(); ++i) {
        ScenarioConfig c = parseConfig(configs->array[i], i);
        for (const ScenarioConfig &prev : sc.configs)
            if (prev.series == c.series && prev.base == c.base)
                bad("duplicate series '" + c.series + "' at " + c.where);
        if (c.base && !find(root, "sweep"))
            bad(c.where + ".base needs a sweep (base configs fill the "
                          "<workload>|base reference row)");
        sc.configs.push_back(std::move(c));
    }

    if (const JsonValue *sweep = find(root, "sweep")) {
        sc.hasSweep = true;
        sc.sweep = parseSweep(*sweep, sc.configs);
    }

    // Validate every config template and sweep value eagerly so errors
    // surface at parse time, naming their path, not mid-run.
    for (const ScenarioConfig &c : sc.configs) {
        (void)sc.buildConfig(c); // `set` errors name their own path
        std::vector<std::string> values =
            c.base ? std::vector<std::string>{c.baseValue}
                   : sc.sweep.values;
        for (const std::string &v : values) {
            try {
                (void)sc.buildConfig(c, v);
            } catch (const std::runtime_error &e) {
                throw std::runtime_error(
                    std::string(e.what()) +
                    (c.base ? " (in sweep.baseline.value)"
                            : " (in sweep.values)"));
            }
        }
    }
    return sc;
}

std::vector<std::string>
scenarioViews(const JsonValue &root)
{
    const JsonValue *v = find(root, "views");
    if (!v)
        return {"ipc"};
    std::vector<std::string> views = stringList(*v, "views");
    if (views.empty())
        bad("views must not be empty");
    for (std::size_t i = 0; i < views.size(); ++i)
        if (!isViewName(views[i]))
            bad("unknown view '" + views[i] + "' at views[" +
                std::to_string(i) +
                "] (a numeric Metrics key such as ipc or cpi, or "
                "perf/ed2p)");
    return views;
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::string text = readFile(path);
    // Trace paths inside the file resolve relative to the file itself.
    std::size_t slash = path.find_last_of("/\\");
    std::string base_dir =
        slash == std::string::npos ? "" : path.substr(0, slash);
    try {
        return scenarioFromJson(text, base_dir);
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

JsonValue
lengthsTree(const RunLengths &l)
{
    return jsonObject({{"funcWarm", jsonU64(l.funcWarm)},
                       {"pipeWarm", jsonU64(l.pipeWarm)},
                       {"detail", jsonU64(l.detail)}});
}

JsonValue
samplingTree(const SamplePlan &plan)
{
    return jsonObject(
        {{"fastForward", jsonU64(plan.fastForward)},
         {"warmup", jsonU64(plan.warmup)},
         {"detail", jsonU64(plan.detail)},
         {"samples", jsonU64(std::uint64_t(plan.samples))}});
}

std::string
sweepSpecToJson(const SweepSpec &spec)
{
    JsonValue doc = jsonObject({{"name", jsonStr(spec.name)},
                                {"lengths", lengthsTree(spec.lengths)}});
    if (spec.sampling.enabled())
        doc.object["sampling"] = samplingTree(spec.sampling);
    JsonValue &jobs = doc.object["jobs"] = jsonArray();
    for (const SweepJob &job : spec.jobs) {
        JsonValue &o = jobs.array.emplace_back(
            jsonObject({{"row", jsonStr(job.row)},
                        {"series", jsonStr(job.series)},
                        {"label", jsonStr(job.label)},
                        {"kernels", jsonArray()}}));
        for (const std::string &k : job.kernels)
            o.object["kernels"].array.push_back(jsonStr(k));
        o.object["config"] = configTree(job.cfg);
    }
    return writeJson(doc) + "\n";
}

} // namespace ltp
