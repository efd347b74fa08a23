/**
 * @file
 * Self-contained JSON reader/writer shared by result archiving
 * (sim/report), config serialization (sim/config), scenario files
 * (sim/scenario), the result cache and the serve wire.  No
 * third-party dependency.  There is one writer: callers build a
 * JsonValue tree and render it, so every object prints its keys in
 * sorted (map) order.
 *
 * The dialect is full JSON minus unicode escapes: objects, arrays,
 * strings, numbers (including the nan/inf spellings %.17g can emit),
 * booleans, and null.  Numbers keep their source lexeme alongside the
 * parsed double so integer fields round-trip exactly even above 2^53.
 */

#ifndef LTP_COMMON_JSON_HH
#define LTP_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ltp {

/** One parsed JSON value (tree node). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    /** String payload; for Kind::Number, the source lexeme. */
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }

    /** Human name of @p kind for error messages ("a string", ...). */
    static const char *kindName(Kind kind);
};

/**
 * Parse @p text into a value tree.
 * @throws std::runtime_error naming the byte offset on malformed input.
 */
JsonValue parseJson(const std::string &text);

/**
 * Render a value tree; objects render with sorted keys (map order),
 * nested 2-space indentation starting at column @p indent.
 */
std::string writeJson(const JsonValue &v, int indent = 0);

/**
 * Single-line rendering with sorted keys and no whitespace.  Because
 * key order is canonical (map order) and numbers keep their shortest
 * round-trip lexeme, two value trees with equal content always render
 * to equal bytes — the canonical form hashed for cell keys and the
 * framing used by the newline-delimited serve wire protocol.
 */
std::string writeJsonCompact(const JsonValue &v);

/**
 * Exact unsigned 64-bit value from a number lexeme.  @return false on
 * signs, fractions, exponents, or out-of-range values (callers decide
 * how to report; the lexeme form keeps integers above 2^53 exact).
 */
bool u64FromLexeme(const std::string &s, std::uint64_t *out);

/**
 * A number value as a u64: its exact lexeme when that is one (exact
 * above 2^53), else the double truncated toward zero, and 0 for a
 * negative, NaN or out-of-range double — a defined result for any
 * input, for readers that tolerate rather than reject.
 */
std::uint64_t jsonToU64(const JsonValue &v);

/// @name Value-tree builders: every document the program writes
/// (reports, configs, Metrics, cache entries, wire frames) is one of
/// these trees rendered by writeJson or writeJsonCompact.  A number
/// keeps its lexeme (exact for a u64, what printf("%.17g") prints for
/// a double, which parses back to the identical value), so a built
/// tree renders to the same bytes as one parsed from its text.
/// @{
JsonValue jsonStr(const std::string &s);
JsonValue jsonU64(std::uint64_t n);
JsonValue jsonDouble(double d);
JsonValue jsonBool(bool b);
JsonValue jsonObject(std::map<std::string, JsonValue> fields = {});
JsonValue jsonArray(std::vector<JsonValue> items = {});
/// @}

} // namespace ltp

#endif // LTP_COMMON_JSON_HH
