#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

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

std::string
jsonNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

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
jsonBool(bool b)
{
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
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

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    out += '"';
    return out;
}

std::string
JsonObjectBuilder::render(int indent) const
{
    std::string pad(static_cast<std::size_t>(indent), ' ');
    std::string inner(static_cast<std::size_t>(indent) + 2, ' ');
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        out += inner + jsonQuote(fields_[i].first) + ": " +
               fields_[i].second;
        if (i + 1 < fields_.size())
            out += ",";
        out += "\n";
    }
    out += pad + "}";
    return out;
}

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

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
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
            JsonValue key = stringValue();
            expect(':');
            v.object[key.str] = value();
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
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_];
            if (c == '\\') {
                pos_ += 1;
                if (pos_ >= text_.size())
                    fail("bad escape");
                switch (text_[pos_]) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  default: fail("unsupported escape");
                }
            }
            v.str += c;
            pos_ += 1;
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        pos_ += 1; // closing quote
        return v;
    }

    JsonValue
    numberValue()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == 'n' ||
                text_[pos_] == 'i' || text_[pos_] == 'f' ||
                text_[pos_] == 'a'))
            pos_ += 1;
        if (pos_ == start)
            fail("expected a number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.str = text_.substr(start, pos_ - start);
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
        out += v.str.empty() ? jsonNum(v.num) : v.str;
        return;
      case JsonValue::Kind::String:
        out += jsonQuote(v.str);
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
            out += inner + jsonQuote(key) + ": ";
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
        out += v.str.empty() ? jsonNum(v.num) : v.str;
        return;
      case JsonValue::Kind::String:
        out += jsonQuote(v.str);
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
            out += jsonQuote(key) + ":";
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
