#include "common/json.hh"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace ltp {

const char *
JsonValue::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Null: return "null";
      case Kind::Bool: return "a boolean";
      case Kind::Number: return "a number";
      case Kind::String: return "a string";
      case Kind::Array: return "an array";
      case Kind::Object: return "an object";
    }
    return "?";
}

namespace {

/** Shortest representation that parses back to the identical double. */
std::string
jsonNum(double v)
{
    // to_chars at precision 17 is specified to print exactly what
    // printf("%.17g") prints (nan/inf spellings included), ~5x faster.
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 17);
    return std::string(buf, res.ptr);
}

} // namespace

JsonValue
jsonStr(const std::string &s)
{
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    v.str = s;
    return v;
}

JsonValue
jsonU64(std::uint64_t n)
{
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.num = double(n);
    v.str = std::to_string(n);
    return v;
}

JsonValue
jsonDouble(double d)
{
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.num = d;
    v.str = jsonNum(d);
    return v;
}

JsonValue
jsonBool(bool b)
{
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
}

JsonValue
jsonObject(std::map<std::string, JsonValue> fields)
{
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    v.object = std::move(fields);
    return v;
}

JsonValue
jsonArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    v.array = std::move(items);
    return v;
}

bool
u64FromLexeme(const std::string &s, std::uint64_t *out)
{
    if (s.empty() ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

std::uint64_t
jsonToU64(const JsonValue &v)
{
    std::uint64_t exact = 0;
    if (v.isNumber() && u64FromLexeme(v.str, &exact))
        return exact;
    // 2^64: the first double past the u64 range.
    if (!(v.num >= 0.0 && v.num < 18446744073709551616.0))
        return 0;
    return static_cast<std::uint64_t>(v.num);
}

namespace {

/** Append @p s to @p out as a JSON string literal. */
void
appendJsonQuoted(std::string &out, const std::string &s)
{
    out += '"';
    // Copy runs of plain bytes in bulk; only the four escaped bytes
    // break a run.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char *esc = nullptr;
        switch (s[i]) {
          case '"': esc = "\\\""; break;
          case '\\': esc = "\\\\"; break;
          case '\n': esc = "\\n"; break;
          case '\t': esc = "\\t"; break;
          default: continue;
        }
        out.append(s, run, i - run);
        out += esc;
        run = i + 1;
    }
    out.append(s, run, std::string::npos);
    out += '"';
}

} // namespace

// ---------------------------------------------------------------------------
// Parsing: recursive descent
// ---------------------------------------------------------------------------

namespace {

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    /** The bytes std::isspace accepts in the C locale, without the
     *  per-byte locale lookup. */
    static bool
    isWs(char c)
    {
        return c == ' ' || c == '\n' || c == '\t' || c == '\r' ||
               c == '\v' || c == '\f';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() && isWs(text_[pos_]))
            pos_ += 1;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        pos_ += 1;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    value()
    {
        char c = peek();
        if (c == '{')
            return objectValue();
        if (c == '[')
            return arrayValue();
        if (c == '"')
            return stringValue();
        if (c == 't' || c == 'f') {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = (c == 't');
            if (!literal(v.boolean ? "true" : "false"))
                fail("bad literal");
            return v;
        }
        if (c == 'n' && literal("null")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Null;
            return v;
        }
        return numberValue(); // numbers, including nan/inf spellings
    }

    JsonValue
    objectValue()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            pos_ += 1;
            return v;
        }
        for (;;) {
            std::string key = stringValue().str;
            expect(':');
            // Canonical text arrives with sorted keys, so the end is
            // the right hint; a duplicate key keeps its last value.
            v.object.insert_or_assign(v.object.end(), std::move(key),
                                      value());
            char c = peek();
            pos_ += 1;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    JsonValue
    arrayValue()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            pos_ += 1;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            char c = peek();
            pos_ += 1;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    JsonValue
    stringValue()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        for (;;) {
            // Append the run up to the next quote or escape in bulk.
            std::size_t stop = text_.find_first_of("\"\\", pos_);
            if (stop == std::string::npos) {
                pos_ = text_.size();
                fail("unterminated string");
            }
            v.str.append(text_, pos_, stop - pos_);
            pos_ = stop;
            if (text_[pos_] == '"')
                break;
            pos_ += 1;
            if (pos_ >= text_.size())
                fail("bad escape");
            switch (text_[pos_]) {
              case '"': v.str += '"'; break;
              case '\\': v.str += '\\'; break;
              case 'n': v.str += '\n'; break;
              case 't': v.str += '\t'; break;
              default: fail("unsupported escape");
            }
            pos_ += 1;
        }
        pos_ += 1; // closing quote
        return v;
    }

    JsonValue
    numberValue()
    {
        skipWs();
        std::size_t start = pos_;
        auto lexemeChar = [](char c) {
            return (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                   c == '.' || c == 'e' || c == 'E' || c == 'n' ||
                   c == 'i' || c == 'f' || c == 'a';
        };
        while (pos_ < text_.size() && lexemeChar(text_[pos_]))
            pos_ += 1;
        if (pos_ == start)
            fail("expected a number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.str.assign(text_, start, pos_ - start);
        // Full-lexeme parse: partial consumption ("4..25", "1e") is a
        // typo, not a number.
        char *end = nullptr;
        v.num = std::strtod(v.str.c_str(), &end);
        if (end == v.str.c_str() || *end != '\0')
            fail("bad number '" + v.str + "'");
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

void
writeValue(const JsonValue &v, int indent, std::string &out)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        return;
      case JsonValue::Kind::Bool:
        out += v.boolean ? "true" : "false";
        return;
      case JsonValue::Kind::Number:
        if (v.str.empty())
            out += jsonNum(v.num);
        else
            out += v.str;
        return;
      case JsonValue::Kind::String:
        appendJsonQuoted(out, v.str);
        return;
      case JsonValue::Kind::Array: {
        if (v.array.empty()) {
            out += "[]";
            return;
        }
        out += "[";
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i)
                out += ", ";
            writeValue(v.array[i], indent, out);
        }
        out += "]";
        return;
      }
      case JsonValue::Kind::Object: {
        if (v.object.empty()) {
            out += "{}";
            return;
        }
        std::string pad(static_cast<std::size_t>(indent), ' ');
        std::string inner(static_cast<std::size_t>(indent) + 2, ' ');
        out += "{\n";
        std::size_t i = 0;
        for (const auto &[key, value] : v.object) {
            out += inner;
            appendJsonQuoted(out, key);
            out += ": ";
            writeValue(value, indent + 2, out);
            if (++i < v.object.size())
                out += ",";
            out += "\n";
        }
        out += pad + "}";
        return;
      }
    }
}

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

std::string
writeJson(const JsonValue &v, int indent)
{
    std::string out;
    writeValue(v, indent, out);
    return out;
}

namespace {

void
writeCompact(const JsonValue &v, std::string &out)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        return;
      case JsonValue::Kind::Bool:
        out += v.boolean ? "true" : "false";
        return;
      case JsonValue::Kind::Number:
        if (v.str.empty())
            out += jsonNum(v.num);
        else
            out += v.str;
        return;
      case JsonValue::Kind::String:
        appendJsonQuoted(out, v.str);
        return;
      case JsonValue::Kind::Array: {
        out += "[";
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i)
                out += ",";
            writeCompact(v.array[i], out);
        }
        out += "]";
        return;
      }
      case JsonValue::Kind::Object: {
        out += "{";
        std::size_t i = 0;
        for (const auto &[key, value] : v.object) {
            if (i++)
                out += ",";
            appendJsonQuoted(out, key);
            out += ':';
            writeCompact(value, out);
        }
        out += "}";
        return;
      }
    }
}

} // namespace

std::string
writeJsonCompact(const JsonValue &v)
{
    std::string out;
    writeCompact(v, out);
    return out;
}

} // namespace ltp
