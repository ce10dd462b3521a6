/**
 * @file
 * The one JSON codec: every JSON document the repo writes goes through
 * JsonWriter, and every one it reads goes through parseJson() and the
 * checked accessors field() and u64Field(). No third-party dependency,
 * by design.
 *
 * Writing is deterministic: fixed key order (the caller's), doubles
 * printed with %.17g so they round-trip exactly (non-finite as null),
 * and bytes that never depend on locale or stream state.
 *
 * Reading accepts exactly JSON's grammar (objects, arrays, strings,
 * numbers, booleans, null), nested at most kMaxDepth levels. Every
 * failure, a syntax error or a document of the wrong shape, throws
 * JsonParseError naming the document or object and, for shape errors,
 * the key: the command-line tools catch it once in main and exit 2,
 * the result cache and the shard supervisor treat it as a damaged
 * cell.
 *
 * The writer's calls, parseJson() and the accessors are [[gnu::noipa]]:
 * one out-of-line copy each, as a source file would give. Inlined into
 * every field of the sinks and readers, they added about 40 KB of code
 * ahead of the simulator's hot loops.
 */

#ifndef PP_COMMON_JSON_MIN_HH
#define PP_COMMON_JSON_MIN_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_io.hh"

namespace pp
{
namespace jsonmin
{

struct JsonParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/** @p v as %.17g (exact round trip); NaN and infinities as null. */
inline std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * @p s as the contents of a JSON string literal (without the quotes):
 * '"' and '\\' escaped, \n \t \r by name and every other byte below
 * 0x20 as \u00xx, so the literal never holds a raw control byte and a
 * JSON-lines record stays on one line. parseJson() reads it back to
 * @p s exactly.
 */
inline std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Compact deterministic JSON emitter (objects, arrays, scalars). */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    [[gnu::noipa]] JsonWriter &
    key(const std::string &k)
    {
        separate();
        os_ << '"' << escape(k) << "\":";
        afterKey_ = true;
        return *this;
    }

    [[gnu::noipa]] JsonWriter &
    value(const std::string &v)
    {
        separate();
        os_ << '"' << escape(v) << '"';
        return *this;
    }

    JsonWriter &value(const char *v) { return value(std::string(v)); }

    [[gnu::noipa]] JsonWriter &
    value(double v)
    {
        separate();
        os_ << formatDouble(v);
        return *this;
    }

    [[gnu::noipa]] JsonWriter &
    value(std::uint64_t v)
    {
        separate();
        os_ << v;
        return *this;
    }

    [[gnu::noipa]] JsonWriter &
    value(bool v)
    {
        separate();
        os_ << (v ? "true" : "false");
        return *this;
    }

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

  private:
    void
    separate()
    {
        if (afterKey_) {
            afterKey_ = false;
            return;
        }
        if (!firstInScope_.back())
            os_ << ',';
        firstInScope_.back() = false;
    }

    [[gnu::noipa]] JsonWriter &
    open(char c)
    {
        separate();
        os_ << c;
        firstInScope_.push_back(true);
        return *this;
    }

    [[gnu::noipa]] JsonWriter &
    close(char c)
    {
        firstInScope_.pop_back();
        os_ << c;
        return *this;
    }

    std::ostream &os_;
    std::vector<bool> firstInScope_{true};
    bool afterKey_ = false;
};

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

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

    /** The field @p key of an object, or nullptr (also for non-objects). */
    const JsonValue *
    get(const std::string &key) const
    {
        for (const auto &f : fields)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }
};

/**
 * Deepest nesting parseJson() accepts. The repo's documents nest at
 * most five levels; the bound keeps the recursive descent, and the
 * recursive destruction of what it built, off the end of the stack.
 */
constexpr unsigned kMaxDepth = 64;

class JsonParser
{
  public:
    /** @p source, when not empty, prefixes every error message. */
    JsonParser(const std::string &text, const std::string &source)
        : s(text), source_(source)
    {}

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
        throw JsonParseError((source_.empty() ? "" : source_ + ": ") +
                             "JSON parse error at byte " +
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

    bool
    digitAt(std::size_t i) const
    {
        return i < s.size() && s[i] >= '0' && s[i] <= '9';
    }

    JsonValue
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return nested(&JsonParser::object);
          case '[': return nested(&JsonParser::array);
          case '"': return string();
          case 't': return literal("true", JsonValue::Kind::Bool, true);
          case 'f': return literal("false", JsonValue::Kind::Bool, false);
          case 'n': return literal("null", JsonValue::Kind::Null, false);
          default: return number();
        }
    }

    JsonValue
    nested(JsonValue (JsonParser::*parse)())
    {
        if (++depth_ > kMaxDepth)
            fail("nested deeper than " + std::to_string(kMaxDepth) +
                 " levels");
        JsonValue v = (this->*parse)();
        --depth_;
        return v;
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
            v.fields.emplace_back(std::move(key.str), value());
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

    /** The four hex digits of a \u escape as a code point. */
    unsigned
    hex4()
    {
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            const int d = c >= '0' && c <= '9' ? c - '0'
                : c >= 'a' && c <= 'f'         ? c - 'a' + 10
                : c >= 'A' && c <= 'F'         ? c - 'A' + 10
                                               : -1;
            if (d < 0)
                fail("\\u escape needs four hex digits");
            cp = cp * 16 + static_cast<unsigned>(d);
            ++at;
        }
        return cp;
    }

    /** Append code point @p cp (below 0x10000) to @p out as UTF-8. */
    static void
    putUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
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
              case 'u': putUtf8(v.str, hex4()); break;
              default: fail("unknown escape");
            }
        }
        ++at;
        return v;
    }

    JsonValue
    literal(const char *word, JsonValue::Kind kind, bool boolean)
    {
        const std::string w(word);
        if (s.compare(at, w.size(), w) != 0)
            fail("bad literal");
        at += w.size();
        JsonValue v;
        v.kind = kind;
        v.boolean = boolean;
        return v;
    }

    /**
     * A number in JSON's grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?
     * [0-9]+)?, and finite: no nan, inf, hex, leading '+' or leading
     * zeros, which strtod alone would take.
     */
    JsonValue
    number()
    {
        const std::size_t start = at;
        std::size_t i = at;
        if (i < s.size() && s[i] == '-')
            ++i;
        if (!digitAt(i))
            fail("bad number");
        if (s[i] == '0')
            ++i;
        else
            while (digitAt(i))
                ++i;
        if (i < s.size() && s[i] == '.') {
            if (!digitAt(++i))
                fail("bad number");
            while (digitAt(i))
                ++i;
        }
        if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < s.size() && (s[i] == '+' || s[i] == '-'))
                ++i;
            if (!digitAt(i))
                fail("bad number");
            while (digitAt(i))
                ++i;
        }
        const std::string text = s.substr(start, i - start);
        const double d = std::strtod(text.c_str(), nullptr);
        if (!std::isfinite(d))
            fail("number out of range");
        at = i;
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        return v;
    }

    const std::string &s;
    const std::string &source_;
    std::size_t at = 0;
    unsigned depth_ = 0;
};

/** Parse @p text whole; errors name @p source when it is not empty. */
[[gnu::noipa]] inline JsonValue
parseJson(const std::string &text, const std::string &source = "")
{
    return JsonParser(text, source).parse();
}

/** The bytes of @p path; throws JsonParseError naming it on failure. */
inline std::string
readJsonFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::string error;
    if (!readFileBytes(path, bytes, &error))
        throw JsonParseError(path + ": " + error);
    return std::string(bytes.begin(), bytes.end());
}

/** Read @p path whole and parse it; errors name the file. */
inline JsonValue
parseJsonFile(const std::string &path)
{
    return parseJson(readJsonFile(path), path);
}

/**
 * The field @p key of @p obj, which must be present and of @p kind.
 * Throws JsonParseError naming @p what (the object, and the document
 * it came from) and the key otherwise.
 */
[[gnu::noipa]] inline const JsonValue &
field(const JsonValue &obj, const char *key, JsonValue::Kind kind,
      const std::string &what)
{
    static const char *const kNames[] = {"null",     "a bool",
                                         "a number", "a string",
                                         "an array", "an object"};
    const JsonValue *v = obj.get(key);
    if (v == nullptr)
        throw JsonParseError(what + ": missing field '" + key + "'");
    if (v->kind != kind)
        throw JsonParseError(what + ": field '" + key + "' is not " +
                             kNames[static_cast<int>(kind)]);
    return *v;
}

/**
 * The unsigned integer field @p key of @p obj, for the readers of the
 * repo's counter-bearing documents. Throws JsonParseError, prefixed
 * with @p what, when the field is missing or is not an integral number
 * in [0, 2^64): casting any other double to std::uint64_t is undefined
 * behaviour.
 */
[[gnu::noipa]] inline std::uint64_t
u64Field(const JsonValue &obj, const char *key, const std::string &what)
{
    const double v = field(obj, key, JsonValue::Kind::Number, what).number;
    if (!(v >= 0.0) || !(v < 18446744073709551616.0) || v != std::floor(v))
        throw JsonParseError(what + ": field '" + key +
                             "' is not an unsigned integer");
    return static_cast<std::uint64_t>(v);
}

} // namespace jsonmin
} // namespace pp

#endif // PP_COMMON_JSON_MIN_HH
