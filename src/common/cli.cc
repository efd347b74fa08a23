#include "common/cli.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace ltp {

namespace {

[[noreturn]] void
printHelp(const char *prog, const std::set<std::string> &known,
          const std::string &summary)
{
    if (!summary.empty())
        std::printf("%s\n\n", summary.c_str());
    std::printf("usage: %s [--flag[=value]]...\n", prog);
    std::printf("known flags:\n");
    for (const std::string &key : known)
        std::printf("  --%s\n", key.c_str());
    std::exit(0);
}

} // namespace

Cli::Cli(int argc, char **argv, const std::set<std::string> &known,
         const std::string &summary)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            printHelp(argv[0], known, summary);
        if (arg.rfind("--", 0) != 0)
            fatal("%s: unexpected positional argument '%s'", argv[0],
                  arg.c_str());
        arg = arg.substr(2);

        std::string key, value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            key = arg;
            // `--key value` form only if the next token isn't a flag.
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)) {
                value = argv[++i];
            } else {
                value = "1"; // boolean switch
            }
        }
        if (key == "help")
            printHelp(argv[0], known, summary);
        // argv[0] names the subcommand ("ltp sweep"), so a typo'd
        // flag in a long pipeline says exactly where it happened.
        if (!known.count(key))
            fatal("%s: unknown flag --%s (try %s --help)", argv[0],
                  key.c_str(), argv[0]);
        values_[key].push_back(value);
    }
}

const std::string *
Cli::last(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second.back();
}

bool
Cli::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Cli::str(const std::string &key, const std::string &dflt) const
{
    const std::string *v = last(key);
    return v ? *v : dflt;
}

std::int64_t
Cli::integer(const std::string &key, std::int64_t dflt) const
{
    const std::string *v = last(key);
    if (!v)
        return dflt;
    // The whole value, in base 10: a prefix parse would read "1e4" as
    // 1 and "10k" as 10, and "-5" would wrap once cast to a length.
    std::int64_t n = 0;
    const char *end = v->data() + v->size();
    auto [stop, ec] = std::from_chars(v->data(), end, n);
    if (ec != std::errc() || stop != end || n < 0)
        fatal("--%s needs a non-negative integer, got '%s'", key.c_str(),
              v->c_str());
    return n;
}

double
Cli::real(const std::string &key, double dflt) const
{
    const std::string *v = last(key);
    if (!v)
        return dflt;
    char *end = nullptr;
    double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
        fatal("--%s needs a number, got '%s'", key.c_str(), v->c_str());
    return d;
}

bool
Cli::flag(const std::string &key) const
{
    const std::string *v = last(key);
    return v && *v != "0" && *v != "false";
}

std::vector<std::string>
Cli::list(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{}
                               : it->second;
}

} // namespace ltp
