/**
 * @file
 * Minimal recursive-descent JSON parser shared by the result-analytics
 * tools (sweep_diff, sweep_store, sweep_report), the shard-fragment
 * reader (exec/shard.cc) and the trace-event tests. Handles exactly the
 * JSON the repo's deterministic writers emit (objects, arrays, strings,
 * numbers, booleans, null) — no third-party dependency, by design.
 *
 * Parse errors throw JsonParseError (with the byte offset in the
 * message); the command-line tools catch it at top level and exit 2,
 * the shard supervisor classifies it as corrupt worker output.
 */

#ifndef PP_COMMON_JSON_MIN_HH
#define PP_COMMON_JSON_MIN_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pp
{
namespace jsonmin
{

struct JsonParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    // Key order preserved; the repo's writers emit unique keys.
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue *
    get(const std::string &key) const
    {
        for (const auto &f : fields)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (at != s.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw JsonParseError("JSON parse error at byte " +
                             std::to_string(at) + ": " + why);
    }

    void
    skipWs()
    {
        while (at < s.size() && (s[at] == ' ' || s[at] == '\t' ||
                                 s[at] == '\n' || s[at] == '\r'))
            ++at;
    }

    char
    peek()
    {
        if (at >= s.size())
            fail("unexpected end of input");
        return s[at];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++at;
    }

    JsonValue
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': case 'f': return boolean();
          case 'n': return null();
          default: return number();
        }
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++at;
            return v;
        }
        for (;;) {
            skipWs();
            JsonValue key = string();
            skipWs();
            expect(':');
            v.fields.emplace_back(key.str, value());
            skipWs();
            if (peek() == ',') {
                ++at;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++at;
            return v;
        }
        for (;;) {
            v.items.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++at;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        while (peek() != '"') {
            char c = s[at++];
            if (c != '\\') {
                v.str.push_back(c);
                continue;
            }
            const char esc = peek();
            ++at;
            switch (esc) {
              case '"': v.str.push_back('"'); break;
              case '\\': v.str.push_back('\\'); break;
              case '/': v.str.push_back('/'); break;
              case 'n': v.str.push_back('\n'); break;
              case 't': v.str.push_back('\t'); break;
              case 'r': v.str.push_back('\r'); break;
              case 'b': v.str.push_back('\b'); break;
              case 'f': v.str.push_back('\f'); break;
              case 'u': {
                if (at + 4 > s.size())
                    fail("bad \\u escape");
                // The writers only emit \u00xx control escapes; decode
                // the low byte and drop the (zero) high byte.
                const std::string hex = s.substr(at + 2, 2);
                v.str.push_back(static_cast<char>(
                    std::strtoul(hex.c_str(), nullptr, 16)));
                at += 4;
                break;
              }
              default: fail("unknown escape");
            }
        }
        ++at;
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (s.compare(at, 4, "true") == 0) {
            v.boolean = true;
            at += 4;
        } else if (s.compare(at, 5, "false") == 0) {
            v.boolean = false;
            at += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue
    null()
    {
        if (s.compare(at, 4, "null") != 0)
            fail("bad literal");
        at += 4;
        JsonValue v;
        v.kind = JsonValue::Kind::Null;
        return v;
    }

    JsonValue
    number()
    {
        const char *start = s.c_str() + at;
        char *end = nullptr;
        errno = 0;
        const double d = std::strtod(start, &end);
        if (end == start || errno == ERANGE)
            fail("bad number");
        at += static_cast<std::size_t>(end - start);
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        return v;
    }

    const std::string &s;
    std::size_t at = 0;
};

inline JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

/**
 * The unsigned integer field @p key of @p obj, for the readers of the
 * repo's counter-bearing documents. Throws @p Error, prefixed with
 * @p what, when the field is missing or is not a finite, non-negative,
 * integral number below 2^64: casting any other double to
 * std::uint64_t is undefined behaviour, and strtod accepts "inf".
 */
template <typename Error>
std::uint64_t
u64Field(const JsonValue &obj, const char *key, const char *what)
{
    const JsonValue *v = obj.get(key);
    if (v == nullptr)
        throw Error(std::string(what) + ": missing field '" + key + "'");
    if (v->kind != JsonValue::Kind::Number || !(v->number >= 0.0) ||
        !(v->number < 18446744073709551616.0) ||
        v->number != std::floor(v->number))
        throw Error(std::string(what) + ": field '" + key +
                    "' is not an unsigned integer");
    return static_cast<std::uint64_t>(v->number);
}

/** Read @p path whole and parse it; throws JsonParseError on failure. */
inline JsonValue
parseJsonFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw JsonParseError("cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseJson(buf.str());
}

} // namespace jsonmin
} // namespace pp

#endif // PP_COMMON_JSON_MIN_HH
