/**
 * @file
 * Minimal command-line flag parser for the bench, tool, and example
 * binaries.
 *
 * Supports `--key=value` and `--key value` forms plus boolean switches
 * (`--fast`).  `--help` (or `-h`) prints the known-flag set and exits
 * with status 0; any other unknown flag is fatal so typos in experiment
 * scripts cannot silently fall back to defaults.  For the same reason
 * a numeric value must parse whole: integer() takes a non-negative
 * base-10 integer, real() a number, and anything else is fatal.
 */

#ifndef LTP_COMMON_CLI_HH
#define LTP_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ltp {

/** Parsed command line with typed accessors and defaults. */
class Cli
{
  public:
    /**
     * Parse argv.  @p known lists every accepted flag name; passing a
     * flag outside this set terminates with fatal(), except `--help`,
     * which prints usage (plus @p summary when given) and exits 0.
     */
    Cli(int argc, char **argv, const std::set<std::string> &known,
        const std::string &summary = "");

    bool has(const std::string &key) const;
    std::string str(const std::string &key, const std::string &dflt) const;
    std::int64_t integer(const std::string &key, std::int64_t dflt) const;
    double real(const std::string &key, double dflt) const;
    bool flag(const std::string &key) const;

    /** Every value of a repeatable flag (e.g. `--set a=1 --set b=2`),
     *  in command-line order; empty if absent. */
    std::vector<std::string> list(const std::string &key) const;

  private:
    /** Scalar accessors read the last occurrence of a flag. */
    const std::string *last(const std::string &key) const;

    std::map<std::string, std::vector<std::string>> values_;
};

} // namespace ltp

#endif // LTP_COMMON_CLI_HH
