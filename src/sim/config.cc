#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace ltp {

SimConfig
SimConfig::baseline()
{
    SimConfig cfg;
    cfg.name = "base-iq64-rf128";
    // CoreConfig/MemConfig defaults already encode Table 1.
    cfg.core.ltp.mode = LtpMode::Off;
    return cfg;
}

SimConfig
SimConfig::ltpProposal(LtpMode mode)
{
    SimConfig cfg;
    cfg.name = std::string("ltp-") + ltpModeName(mode) + "-iq32-rf96";
    cfg.core.iqSize = 32;
    cfg.core.intRegs = 96;
    cfg.core.fpRegs = 96;
    cfg.core.ltp.mode = mode;
    cfg.core.ltp.classifier = ClassifierKind::Learned;
    cfg.core.ltp.entries = 128;
    cfg.core.ltp.insertPorts = 4;
    cfg.core.ltp.extractPorts = 4;
    cfg.core.ltp.uitEntries = 256;
    cfg.core.ltp.useMonitor = true;
    return cfg;
}

SimConfig
SimConfig::limitStudy(LtpMode mode)
{
    SimConfig cfg;
    cfg.name = std::string("limit-") + ltpModeName(mode);
    cfg.core.iqSize = kInfiniteSize;
    cfg.core.intRegs = kInfiniteSize;
    cfg.core.fpRegs = kInfiniteSize;
    cfg.core.lqSize = kInfiniteSize;
    cfg.core.sqSize = kInfiniteSize;
    cfg.core.ltp.mode = mode;
    cfg.core.ltp.classifier =
        mode == LtpMode::Off ? ClassifierKind::Learned
                             : ClassifierKind::Oracle;
    cfg.core.ltp.entries = kInfiniteSize;
    cfg.core.ltp.insertPorts = 8;
    cfg.core.ltp.extractPorts = 8;
    cfg.core.ltp.numTickets = kMaxTickets;
    cfg.core.ltp.useMonitor = true;
    cfg.core.ltp.delayLqSq = true;
    cfg.mem.l1dMshrs = kInfiniteSize;
    return cfg;
}

SimConfig &
SimConfig::withName(const std::string &n)
{
    name = n;
    return *this;
}

SimConfig &
SimConfig::withIq(int entries)
{
    core.iqSize = entries;
    return *this;
}

SimConfig &
SimConfig::withRegs(int per_class)
{
    core.intRegs = per_class;
    core.fpRegs = per_class;
    return *this;
}

SimConfig &
SimConfig::withLq(int entries)
{
    core.lqSize = entries;
    return *this;
}

SimConfig &
SimConfig::withSq(int entries)
{
    core.sqSize = entries;
    return *this;
}

SimConfig &
SimConfig::withRob(int entries)
{
    core.robSize = entries;
    return *this;
}

SimConfig &
SimConfig::withLtp(LtpMode mode, int entries, int ports)
{
    core.ltp.mode = mode;
    core.ltp.entries = entries;
    core.ltp.insertPorts = ports;
    core.ltp.extractPorts = ports;
    return *this;
}

SimConfig &
SimConfig::withLtpOff()
{
    core.ltp.mode = LtpMode::Off;
    return *this;
}

SimConfig &
SimConfig::withOracle()
{
    core.ltp.classifier = ClassifierKind::Oracle;
    return *this;
}

SimConfig &
SimConfig::withLearned()
{
    core.ltp.classifier = ClassifierKind::Learned;
    return *this;
}

SimConfig &
SimConfig::withUit(int entries)
{
    core.ltp.uitEntries = entries;
    return *this;
}

SimConfig &
SimConfig::withTickets(int n)
{
    core.ltp.numTickets = n;
    return *this;
}

SimConfig &
SimConfig::withMonitor(bool on)
{
    core.ltp.useMonitor = on;
    return *this;
}

SimConfig &
SimConfig::withPrefetcher(bool on)
{
    mem.prefetchEnabled = on;
    return *this;
}

SimConfig &
SimConfig::withSeed(std::uint64_t s)
{
    seed = s;
    return *this;
}

// ---------------------------------------------------------------------------
// Serialization: one field registry drives configToJson, configFromJson,
// and applyOverride.
// ---------------------------------------------------------------------------

namespace {

enum class FieldKind { Int, U64, Double, Bool, String, Mode, Classifier,
                       Wakeup, Fetch };

/** One serializable field: dotted path + typed pointer into a config. */
struct Field
{
    const char *path;
    FieldKind kind;
    void *p;
};

/** The full registry, in emission order (paths group into objects). */
std::vector<Field>
fieldsOf(SimConfig &c)
{
    CoreConfig &co = c.core;
    LtpConfig &lt = co.ltp;
    FuConfig &fu = co.fu;
    MemConfig &me = c.mem;
    auto I = [](const char *n, int &v) {
        return Field{n, FieldKind::Int, &v};
    };
    auto U = [](const char *n, std::uint64_t &v) {
        return Field{n, FieldKind::U64, &v};
    };
    auto D = [](const char *n, double &v) {
        return Field{n, FieldKind::Double, &v};
    };
    auto B = [](const char *n, bool &v) {
        return Field{n, FieldKind::Bool, &v};
    };
    return {
        {"name", FieldKind::String, &c.name},
        U("seed", c.seed),

        I("core.fetchWidth", co.fetchWidth),
        I("core.decodeWidth", co.decodeWidth),
        I("core.renameWidth", co.renameWidth),
        I("core.issueWidth", co.issueWidth),
        I("core.wbWidth", co.wbWidth),
        I("core.commitWidth", co.commitWidth),
        I("core.rob", co.robSize),
        I("core.iq", co.iqSize),
        I("core.lq", co.lqSize),
        I("core.sq", co.sqSize),
        I("core.intRegs", co.intRegs),
        I("core.fpRegs", co.fpRegs),
        I("core.frontendDepth", co.frontendDepth),
        I("core.fetchQueueCap", co.fetchQueueCap),
        I("core.redirectPenalty", co.redirectPenalty),
        I("core.bpTableBits", co.bpTableBits),
        I("core.btbEntries", co.btbEntries),
        I("core.sqDrainWidth", co.sqDrainWidth),
        I("core.numThreads", co.numThreads),
        {"core.fetchPolicy", FieldKind::Fetch, &co.fetchPolicy},
        I("core.fu.alu", fu.alu),
        I("core.fu.mul", fu.mul),
        I("core.fu.fp", fu.fp),
        I("core.fu.ld", fu.ld),
        I("core.fu.st", fu.st),
        {"core.ltp.mode", FieldKind::Mode, &lt.mode},
        {"core.ltp.classifier", FieldKind::Classifier, &lt.classifier},
        I("core.ltp.entries", lt.entries),
        I("core.ltp.insertPorts", lt.insertPorts),
        I("core.ltp.extractPorts", lt.extractPorts),
        I("core.ltp.uitEntries", lt.uitEntries),
        I("core.ltp.uitAssoc", lt.uitAssoc),
        I("core.ltp.tickets", lt.numTickets),
        B("core.ltp.monitor", lt.useMonitor),
        {"core.ltp.wakeup", FieldKind::Wakeup, &lt.wakeup},
        B("core.ltp.delayLqSq", lt.delayLqSq),
        I("core.ltp.reservedRegs", lt.reservedRegs),
        I("core.ltp.reservedLqSq", lt.reservedLqSq),

        I("mem.l1i.sizeKB", me.l1i.sizeKB),
        I("mem.l1i.assoc", me.l1i.assoc),
        U("mem.l1i.hitLatency", me.l1i.hitLatency),
        I("mem.l1d.sizeKB", me.l1d.sizeKB),
        I("mem.l1d.assoc", me.l1d.assoc),
        U("mem.l1d.hitLatency", me.l1d.hitLatency),
        I("mem.l2.sizeKB", me.l2.sizeKB),
        I("mem.l2.assoc", me.l2.assoc),
        U("mem.l2.hitLatency", me.l2.hitLatency),
        I("mem.l3.sizeKB", me.l3.sizeKB),
        I("mem.l3.assoc", me.l3.assoc),
        U("mem.l3.hitLatency", me.l3.hitLatency),
        I("mem.dram.channels", me.dram.channels),
        I("mem.dram.banks", me.dram.banks),
        D("mem.dram.cpuCyclesPerDramCycle",
          me.dram.cpuCyclesPerDramCycle),
        I("mem.dram.clCk", me.dram.clCk),
        I("mem.dram.rcdCk", me.dram.rcdCk),
        I("mem.dram.rpCk", me.dram.rpCk),
        I("mem.dram.burstCk", me.dram.burstCk),
        I("mem.dram.rowBytes", me.dram.rowBytes),
        U("mem.dram.controllerLatency", me.dram.controllerLatency),
        B("mem.prefetchEnabled", me.prefetchEnabled),
        I("mem.prefetchDegree", me.prefetchDegree),
        I("mem.l1dMshrs", me.l1dMshrs),
        U("mem.earlyLead", me.earlyLead),
        U("mem.llThreshold", me.llThreshold),
    };
}

[[noreturn]] void
badConfig(const std::string &what)
{
    throw std::runtime_error("config: " + what);
}

std::string
lowered(const std::string &s)
{
    std::string out;
    for (char c : s)
        if (c != '+' && c != '-' && c != '_' && c != ' ')
            out += char(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

LtpMode
parseMode(const std::string &s, const std::string &where)
{
    std::string t = lowered(s);
    if (t == "off")
        return LtpMode::Off;
    if (t == "nu")
        return LtpMode::NU;
    if (t == "nr")
        return LtpMode::NR;
    if (t == "nrnu" || t == "nunr")
        return LtpMode::NRNU;
    badConfig("bad LTP mode '" + s + "' at " + where +
              " (expected off|NU|NR|NR+NU)");
}

const char *
classifierName(ClassifierKind k)
{
    return k == ClassifierKind::Oracle ? "oracle" : "learned";
}

ClassifierKind
parseClassifier(const std::string &s, const std::string &where)
{
    std::string t = lowered(s);
    if (t == "learned")
        return ClassifierKind::Learned;
    if (t == "oracle")
        return ClassifierKind::Oracle;
    badConfig("bad classifier '" + s + "' at " + where +
              " (expected learned|oracle)");
}

const char *
wakeupName(WakeupPolicy p)
{
    switch (p) {
      case WakeupPolicy::RobProximity: return "robProximity";
      case WakeupPolicy::Eager: return "eager";
      case WakeupPolicy::Lazy: return "lazy";
    }
    return "?";
}

WakeupPolicy
parseWakeup(const std::string &s, const std::string &where)
{
    std::string t = lowered(s);
    if (t == "robproximity")
        return WakeupPolicy::RobProximity;
    if (t == "eager")
        return WakeupPolicy::Eager;
    if (t == "lazy")
        return WakeupPolicy::Lazy;
    badConfig("bad wakeup policy '" + s + "' at " + where +
              " (expected robProximity|eager|lazy)");
}

FetchPolicy
parseFetch(const std::string &s, const std::string &where)
{
    std::string t = lowered(s);
    if (t == "roundrobin" || t == "rr")
        return FetchPolicy::RoundRobin;
    if (t == "icount")
        return FetchPolicy::ICount;
    badConfig("bad fetch policy '" + s + "' at " + where +
              " (expected roundRobin|icount)");
}

/** JSON value of one scalar field (sizes print kInfiniteSize as
 *  "inf", matching what the parsers accept). */
JsonValue
fieldValue(const Field &f)
{
    switch (f.kind) {
      case FieldKind::Int: {
        int v = *static_cast<int *>(f.p);
        if (v == kInfiniteSize)
            return jsonStr("inf");
        JsonValue n;
        n.kind = JsonValue::Kind::Number;
        n.num = v;
        n.str = std::to_string(v);
        return n;
      }
      case FieldKind::U64:
        return jsonU64(*static_cast<std::uint64_t *>(f.p));
      case FieldKind::Double:
        return jsonDouble(*static_cast<double *>(f.p));
      case FieldKind::Bool:
        return jsonBool(*static_cast<bool *>(f.p));
      case FieldKind::String:
        return jsonStr(*static_cast<std::string *>(f.p));
      case FieldKind::Mode:
        return jsonStr(ltpModeName(*static_cast<LtpMode *>(f.p)));
      case FieldKind::Classifier:
        return jsonStr(
            classifierName(*static_cast<ClassifierKind *>(f.p)));
      case FieldKind::Wakeup:
        return jsonStr(wakeupName(*static_cast<WakeupPolicy *>(f.p)));
      case FieldKind::Fetch:
        return jsonStr(fetchPolicyName(*static_cast<FetchPolicy *>(f.p)));
    }
    return JsonValue{};
}

/** Fields [@p lo, @p hi) as one value tree, each nested by its path
 *  with the first @p prefix_len bytes (a shared prefix) dropped. */
JsonValue
fieldsTree(const Field *lo, const Field *hi, std::size_t prefix_len)
{
    JsonValue root = jsonObject();
    for (const Field *f = lo; f != hi; ++f) {
        JsonValue *node = &root;
        std::string_view path = f->path + prefix_len;
        for (std::size_t dot; (dot = path.find('.')) != path.npos;
             path.remove_prefix(dot + 1)) {
            node = &node->object[std::string(path.substr(0, dot))];
            node->kind = JsonValue::Kind::Object;
        }
        node->object.emplace(path, fieldValue(*f));
    }
    return root;
}

/** Whole-string signed integer parse; "inf" means kInfiniteSize. */
int
parseIntValue(const std::string &s, const std::string &where)
{
    // Exact spelling only: lowered() strips separators, which would
    // let "-inf" or "i n f" silently mean infinite.
    if (s == "inf" || s == "Inf" || s == "INF")
        return kInfiniteSize;
    char *end = nullptr;
    errno = 0;
    // Base 10: base 0 would read zero-padded values as octal.
    long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        badConfig("bad integer '" + s + "' at " + where);
    if (errno == ERANGE || v < INT_MIN || v > INT_MAX)
        badConfig("integer '" + s + "' out of range at " + where);
    return static_cast<int>(v);
}

/** Whole-string unsigned 64-bit parse (rejects sign/fraction). */
std::uint64_t
parseU64Value(const std::string &s, const std::string &where)
{
    std::uint64_t v = 0;
    if (!u64FromLexeme(s, &v))
        badConfig("bad unsigned integer '" + s + "' at " + where);
    return v;
}

/** Set one field from a parsed JSON value. */
void
setFromJson(const Field &f, const JsonValue &v, const std::string &where)
{
    auto wantNumber = [&]() {
        if (!v.isNumber())
            badConfig(std::string("expected a number at ") + where +
                      ", got " + JsonValue::kindName(v.kind));
    };
    switch (f.kind) {
      case FieldKind::Int:
        // Sizes additionally accept the string "inf".
        if (v.isString()) {
            *static_cast<int *>(f.p) = parseIntValue(v.str, where);
            return;
        }
        wantNumber();
        *static_cast<int *>(f.p) = parseIntValue(v.str, where);
        return;
      case FieldKind::U64:
        wantNumber();
        *static_cast<std::uint64_t *>(f.p) = parseU64Value(v.str, where);
        return;
      case FieldKind::Double:
        wantNumber();
        *static_cast<double *>(f.p) = v.num;
        return;
      case FieldKind::Bool:
        if (!v.isBool())
            badConfig(std::string("expected true/false at ") + where +
                      ", got " + JsonValue::kindName(v.kind));
        *static_cast<bool *>(f.p) = v.boolean;
        return;
      case FieldKind::String:
      case FieldKind::Mode:
      case FieldKind::Classifier:
      case FieldKind::Wakeup:
      case FieldKind::Fetch:
        if (!v.isString())
            badConfig(std::string("expected a string at ") + where +
                      ", got " + JsonValue::kindName(v.kind));
        if (f.kind == FieldKind::String)
            *static_cast<std::string *>(f.p) = v.str;
        else if (f.kind == FieldKind::Mode)
            *static_cast<LtpMode *>(f.p) = parseMode(v.str, where);
        else if (f.kind == FieldKind::Classifier)
            *static_cast<ClassifierKind *>(f.p) =
                parseClassifier(v.str, where);
        else if (f.kind == FieldKind::Wakeup)
            *static_cast<WakeupPolicy *>(f.p) = parseWakeup(v.str, where);
        else
            *static_cast<FetchPolicy *>(f.p) = parseFetch(v.str, where);
        return;
    }
}

/** Edit distance between two path spellings (classic Levenshtein). */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

/**
 * " (did you mean 'X'?)" for the registry path(s) closest to the
 * mistyped @p path, or an empty string when nothing is plausibly
 * close (within ~a third of the spelling, minimum 2 edits).
 */
std::string
didYouMean(const std::string &path)
{
    SimConfig scratch;
    std::size_t best = std::max<std::size_t>(2, path.size() / 3);
    std::vector<std::string> nearest;
    for (const Field &f : fieldsOf(scratch)) {
        std::size_t d = editDistance(path, f.path);
        if (d < best) {
            best = d;
            nearest.assign(1, f.path);
        } else if (d == best) {
            nearest.push_back(f.path);
        }
    }
    if (nearest.empty() || nearest.size() > 3)
        return "";
    std::string out = " (did you mean ";
    for (std::size_t i = 0; i < nearest.size(); ++i) {
        if (i)
            out += i + 1 == nearest.size() ? " or " : ", ";
        out += "'" + nearest[i] + "'";
    }
    out += "?)";
    return out;
}

/** Registry paths in sorted order, each with its registry index —
 *  built once; fieldsOf() always returns the same order. */
const std::vector<std::pair<std::string_view, std::size_t>> &
sortedPaths()
{
    static const auto sorted = [] {
        SimConfig scratch;
        std::vector<Field> fs = fieldsOf(scratch);
        std::vector<std::pair<std::string_view, std::size_t>> out;
        for (std::size_t i = 0; i < fs.size(); ++i)
            out.emplace_back(fs[i].path, i);
        std::sort(out.begin(), out.end());
        return out;
    }();
    return sorted;
}

/** How a dotted path resolves against the registry. */
struct PathMatch
{
    const Field *field = nullptr; ///< exact match
    bool group = false;           ///< a prefix of some field's path
};

PathMatch
matchPath(const std::vector<Field> &fs, std::string_view path)
{
    const auto &sorted = sortedPaths();
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), path,
        [](const auto &e, std::string_view p) { return e.first < p; });
    PathMatch m;
    // Paths extending @p path sort contiguously from the lower bound.
    for (; it != sorted.end() && it->first.substr(0, path.size()) == path;
         ++it) {
        if (it->first.size() == path.size()) {
            m.field = &fs[it->second];
            return m;
        }
        if (it->first[path.size()] == '.') {
            m.group = true;
            return m;
        }
    }
    return m;
}

/**
 * Recursively apply a JSON object's keys through the registry.
 * @p path holds the registry prefix on entry (a scratch buffer, so no
 * key costs a string of its own); errors name it under @p err_prefix.
 */
void
applyObject(const std::vector<Field> &fs, const JsonValue &v,
            std::string &path, const std::string &err_prefix)
{
    std::size_t base = path.size();
    for (const auto &[key, val] : v.object) {
        path.resize(base);
        if (base)
            path += '.';
        path += key;
        PathMatch m = matchPath(fs, path);
        std::string err_path =
            err_prefix.empty() ? std::string() : err_prefix + "." + path;
        const std::string &where = err_prefix.empty() ? path : err_path;
        if (m.field) {
            setFromJson(*m.field, val, where);
        } else if (m.group) {
            if (!val.isObject())
                badConfig("expected an object at " + where + ", got " +
                          JsonValue::kindName(val.kind));
            applyObject(fs, val, path, err_prefix);
        } else {
            badConfig("unknown config key '" + where + "'");
        }
    }
    path.resize(base);
}

} // namespace

std::string
configToJson(const SimConfig &cfg, int indent)
{
    return writeJson(configTree(cfg), indent);
}

std::string
configIdentity(const SimConfig &cfg)
{
    // The registry needs mutable pointers; nothing here writes.
    SimConfig &c = const_cast<SimConfig &>(cfg);
    std::string out;
    auto raw = [&out](const void *p, std::size_t n) {
        out.append(static_cast<const char *>(p), n);
    };
    for (const Field &f : fieldsOf(c)) {
        switch (f.kind) {
          case FieldKind::Int: raw(f.p, sizeof(int)); break;
          case FieldKind::U64: raw(f.p, sizeof(std::uint64_t)); break;
          case FieldKind::Double: raw(f.p, sizeof(double)); break;
          case FieldKind::Bool: raw(f.p, sizeof(bool)); break;
          case FieldKind::Mode: raw(f.p, sizeof(LtpMode)); break;
          case FieldKind::Classifier:
            raw(f.p, sizeof(ClassifierKind));
            break;
          case FieldKind::Wakeup: raw(f.p, sizeof(WakeupPolicy)); break;
          case FieldKind::Fetch: raw(f.p, sizeof(FetchPolicy)); break;
          case FieldKind::String: {
            const std::string &str = *static_cast<std::string *>(f.p);
            std::uint64_t n = str.size();
            raw(&n, sizeof n);
            out += str;
            break;
          }
        }
    }
    return out;
}

std::string
memConfigJson(const MemConfig &mem)
{
    SimConfig c;
    c.mem = mem;
    std::vector<Field> fs = fieldsOf(c);
    auto isMem = [](const Field &f) {
        return std::strncmp(f.path, "mem.", 4) == 0;
    };
    const Field *begin = fs.data(), *end = begin + fs.size();
    const Field *lo = std::find_if(begin, end, isMem);
    const Field *hi = std::find_if_not(lo, end, isMem);
    return writeJsonCompact(fieldsTree(lo, hi, 4));
}

JsonValue
configTree(const SimConfig &cfg)
{
    // The registry needs mutable pointers; emission never writes.
    SimConfig &c = const_cast<SimConfig &>(cfg);
    std::vector<Field> fs = fieldsOf(c);
    return fieldsTree(fs.data(), fs.data() + fs.size(), 0);
}

SimConfig
configFromJson(const JsonValue &v)
{
    SimConfig cfg;
    applyConfigJson(cfg, v);
    return cfg;
}

void
applyConfigJson(SimConfig &cfg, const JsonValue &v,
                const std::string &where)
{
    if (!v.isObject())
        badConfig("expected an object at " +
                  (where.empty() ? std::string("<top level>") : where) +
                  ", got " + JsonValue::kindName(v.kind));
    std::vector<Field> fs = fieldsOf(cfg);
    std::string path;
    applyObject(fs, v, path, where);
}

void
applyOverride(SimConfig &cfg, const std::string &path,
              const std::string &value)
{
    std::vector<Field> fs = fieldsOf(cfg);
    if (const Field *match = matchPath(fs, path).field) {
        const Field &f = *match;
        switch (f.kind) {
          case FieldKind::Int:
            *static_cast<int *>(f.p) = parseIntValue(value, path);
            return;
          case FieldKind::U64:
            *static_cast<std::uint64_t *>(f.p) =
                parseU64Value(value, path);
            return;
          case FieldKind::Double: {
            char *end = nullptr;
            double v = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                badConfig("bad number '" + value + "' at " + path);
            *static_cast<double *>(f.p) = v;
            return;
          }
          case FieldKind::Bool: {
            std::string t = lowered(value);
            if (t == "1" || t == "true" || t == "on")
                *static_cast<bool *>(f.p) = true;
            else if (t == "0" || t == "false" || t == "off")
                *static_cast<bool *>(f.p) = false;
            else
                badConfig("bad boolean '" + value + "' at " + path);
            return;
          }
          case FieldKind::String:
            *static_cast<std::string *>(f.p) = value;
            return;
          case FieldKind::Mode:
            *static_cast<LtpMode *>(f.p) = parseMode(value, path);
            return;
          case FieldKind::Classifier:
            *static_cast<ClassifierKind *>(f.p) =
                parseClassifier(value, path);
            return;
          case FieldKind::Wakeup:
            *static_cast<WakeupPolicy *>(f.p) = parseWakeup(value, path);
            return;
          case FieldKind::Fetch:
            *static_cast<FetchPolicy *>(f.p) = parseFetch(value, path);
            return;
        }
    }
    std::string hint = didYouMean(path);
    badConfig("unknown config path '" + path + "'" + hint +
              " (run `ltp print-config baseline` for the schema)");
}

std::vector<std::string>
configPaths()
{
    SimConfig scratch;
    std::vector<std::string> out;
    for (const Field &f : fieldsOf(scratch))
        out.push_back(f.path);
    return out;
}

LtpMode
parseLtpMode(const std::string &s, const std::string &where)
{
    return parseMode(s, where);
}

} // namespace ltp
