/**
 * @file
 * The one JSON codec (common/json_min.hh): the writer's bytes, the
 * reader's grammar, depth bound and checked accessors, and a seeded
 * mutation sweep over every kind of document the repo writes: a run
 * object, a replay config object, a pp.sweep.v1 and a pp.replay.v1
 * document, a metrics snapshot and a sweep_store index line. Every
 * mutated document must end in JsonParseError or a decode; none may
 * die.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_min.hh"
#include "driver/replay_sink.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "obs/metrics.hh"
#include "program/suite.hh"

using namespace pp;
using jsonmin::JsonParseError;
using jsonmin::JsonValue;
using Kind = JsonValue::Kind;

TEST(JsonCodec, WriterIsCompactAndRoundTrips)
{
    std::ostringstream os;
    jsonmin::JsonWriter w(os);
    w.beginObject()
        .field("s", "a\"b\\c\n\x01")
        .field("d", 0.1)
        .field("nan", std::numeric_limits<double>::quiet_NaN())
        .field("inf", std::numeric_limits<double>::infinity())
        .field("u", std::uint64_t{18446744073709551615ull})
        .field("b", true);
    w.key("a").beginArray().value(1.5).beginObject().endObject().endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"s\":\"a\\\"b\\\\c\\n\\u0001\",\"d\":0.10000000000000001,"
              "\"nan\":null,\"inf\":null,\"u\":18446744073709551615,"
              "\"b\":true,\"a\":[1.5,{}]}");
    const JsonValue v = jsonmin::parseJson(os.str());
    EXPECT_EQ(v.get("s")->str, "a\"b\\c\n\x01");
    EXPECT_EQ(v.get("d")->number, 0.1);
    EXPECT_EQ(v.get("nan")->kind, Kind::Null);
}

TEST(JsonCodec, ParserAcceptsOnlyJsonGrammar)
{
    for (const char *good : {"0", "-0", "1.5e-3", "2E+10", "[ 1 , 2 ]",
                             "\"\\u00e9\\u0001\\/\"", "{\"a\":null}"})
        EXPECT_NO_THROW(jsonmin::parseJson(good)) << good;
    EXPECT_EQ(jsonmin::parseJson("\"\\u00e9\"").str, "\xc3\xa9");
    for (const char *bad :
         {"nan", "inf", "-inf", "+1", "0x10", "01", "1.", ".5", "1e", "-",
          "1e400", "\"\\u12\"", "\"\\u00zz\"", "\"\\x\"", "\"open",
          "[1,]", "{\"a\":1,}", "{\"a\"}", "tru", "1 2", ""})
        EXPECT_THROW(jsonmin::parseJson(bad), JsonParseError) << bad;
}

TEST(JsonCodec, NestingIsBoundedAt64Levels)
{
    const auto repeat = [](const std::string &s, std::size_t n) {
        std::string out;
        for (std::size_t i = 0; i < n; ++i)
            out += s;
        return out;
    };
    const std::size_t max = jsonmin::kMaxDepth;
    EXPECT_NO_THROW(jsonmin::parseJson(repeat("[", max) + repeat("]", max)));
    for (const std::string &deep :
         {repeat("[", max + 1) + repeat("]", max + 1), repeat("[", 200000),
          repeat("{\"a\":", 100000)}) {
        try {
            jsonmin::parseJson(deep, "deep.json");
            ADD_FAILURE() << "expected JsonParseError";
        } catch (const JsonParseError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "deep.json: JSON parse error at byte "),
                      std::string::npos);
            EXPECT_NE(std::string(e.what()).find(
                          ": nested deeper than 64 levels"),
                      std::string::npos);
        }
    }
}

TEST(JsonCodec, AccessorsNameTheObjectAndTheKey)
{
    const JsonValue doc =
        jsonmin::parseJson("{\"n\":1,\"s\":\"x\",\"neg\":-1,\"big\":1e300}");
    EXPECT_EQ(jsonmin::field(doc, "s", Kind::String, "doc").str, "x");
    EXPECT_EQ(jsonmin::u64Field(doc, "n", "doc"), 1u);
    const auto message = [&](const std::function<void()> &read) {
        try {
            read();
        } catch (const JsonParseError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    const auto array = [&](const char *key) {
        return message(
            [&] { jsonmin::field(doc, key, Kind::Array, "f.json"); });
    };
    EXPECT_EQ(array("x"), "f.json: missing field 'x'");
    EXPECT_EQ(array("n"), "f.json: field 'n' is not an array");
    EXPECT_EQ(message([&] { jsonmin::u64Field(doc, "s", "f.json"); }),
              "f.json: field 's' is not a number");
    for (const char *key : {"neg", "big"})
        EXPECT_EQ(message([&] { jsonmin::u64Field(doc, key, "f.json"); }),
                  std::string("f.json: field '") + key +
                      "' is not an unsigned integer");
}

// ---------------------------------------------------------------------
// The mutation sweep
// ---------------------------------------------------------------------

namespace
{

driver::RunSpec
sampleSpec(const std::string &scheme)
{
    driver::RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .ifConvert(true)
        .addScheme(scheme, sim::SchemeConfig{})
        .window(1000, 5000);
    return m.specs().front();
}

sim::RunResult
sampleResult(std::uint64_t salt)
{
    sim::RunResult r;
    r.benchmark = "gzip";
    r.ipc = 1.25 + salt;
    r.mispredRatePct = 3.5;
    r.accuracyPct = 96.5;
    r.hostMs = 12.75;
    r.traceHash = "0123456789abcdef";
    r.stats.cycles = 4000 + salt;
    r.stats.committedInsts = 5000;
    r.stats.committedCondBranches = 700;
    return r;
}

replay::ReplayConfigResult
sampleConfig(const std::string &name)
{
    replay::ReplayConfigResult c;
    c.name = name;
    c.storageBytes = 4096;
    c.stats.condBranches = 900;
    c.stats.mispredicted = 31;
    c.stats.compares = 410;
    return c;
}

/** One input of the sweep: its bytes and the decode its readers do. */
struct JsonInput
{
    const char *name;
    std::string text;
    std::function<void(const std::string &)> decode;
};

std::vector<JsonInput>
sweepInputs()
{
    std::vector<JsonInput> in;
    {
        std::ostringstream os;
        jsonmin::JsonWriter w(os);
        driver::writeRunJson(w, sampleSpec("predicate"), sampleResult(0));
        in.push_back({"run object", os.str(), [](const std::string &t) {
                          driver::parseRunJson(t);
                      }});
    }
    {
        std::ostringstream os;
        jsonmin::JsonWriter w(os);
        driver::writeReplayConfigJson(w, sampleConfig("pvt"), 5000);
        in.push_back({"replay config", os.str(), [](const std::string &t) {
                          driver::parseReplayConfigJson(t);
                      }});
    }
    in.push_back(
        {"pp.sweep.v1",
         driver::JsonSink{}.toString(
             {sampleSpec("conventional"), sampleSpec("predicate")},
             {sampleResult(0), sampleResult(1)}),
         [](const std::string &t) {
             const JsonValue doc = jsonmin::parseJson(t);
             for (const JsonValue &run :
                  jsonmin::field(doc, "runs", Kind::Array, "doc").items)
                 driver::parseRunJson(run);
         }});
    {
        replay::ReplayWorkloadResult w;
        w.benchmark = "gzip";
        w.measureInsts = 5000;
        w.configs = {sampleConfig("a"), sampleConfig("b")};
        in.push_back(
            {"pp.replay.v1", driver::replayJsonString({w, w}),
             [](const std::string &t) {
                 const JsonValue doc = jsonmin::parseJson(t);
                 for (const JsonValue &wl :
                      jsonmin::field(doc, "workloads", Kind::Array, "doc")
                          .items)
                     for (const JsonValue &c :
                          jsonmin::field(wl, "configs", Kind::Array, "wl")
                              .items)
                         driver::parseReplayConfigJson(c);
             }});
    }
    {
        obs::MetricRegistry reg;
        reg.counter("sweep.runs").add(7);
        reg.gauge("sweep.util").set(0.75);
        reg.histogram("sweep.ms", {1.0, 10.0}).observe(4.0);
        in.push_back(
            {"metrics snapshot", reg.snapshot().toJson(),
             [](const std::string &t) {
                 for (const auto &[name, v] : jsonmin::parseJson(t).fields) {
                     if (v.kind != Kind::Object)
                         continue;
                     jsonmin::u64Field(v, "count", name);
                     jsonmin::field(v, "edges", Kind::Array, name);
                     for (const JsonValue &b :
                          jsonmin::field(v, "buckets", Kind::Array, name)
                              .items)
                         if (b.kind != Kind::Number)
                             throw JsonParseError(name + ": bucket");
                 }
             }});
    }
    in.push_back(
        {"index line",
         "{\"seq\":3,\"label\":\"ci\",\"commit\":\"deadbeef\",\"kind\":"
         "\"pp.sweep.v1\",\"object\":\"0123456789abcdef\",\"file\":"
         "\"doc.json\"}",
         [](const std::string &t) {
             const JsonValue e = jsonmin::parseJson(t);
             jsonmin::u64Field(e, "seq", "line");
             for (const char *key :
                  {"label", "commit", "kind", "object", "file"})
                 jsonmin::field(e, key, Kind::String, "line");
         }});
    return in;
}

/** Where each value after a ':' starts, and where each number starts. */
struct Positions
{
    std::vector<std::size_t> values;
    std::vector<std::size_t> numbers;
};

Positions
scan(const std::string &t)
{
    Positions p;
    bool in_string = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const char c = t[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        if (i + 1 < t.size() && (c == ':' || c == ',' || c == '[')) {
            const char n = t[i + 1];
            if (c == ':')
                p.values.push_back(i + 1);
            if (n == '-' || (n >= '0' && n <= '9'))
                p.numbers.push_back(i + 1);
        }
    }
    return p;
}

/** One past the end of the value that starts at @p at. */
std::size_t
valueEnd(const std::string &t, std::size_t at)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = at; i < t.size(); ++i) {
        const char c = t[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
                if (depth == 0)
                    return i + 1;
            }
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            ++depth;
            break;
          case '}':
          case ']':
            if (depth == 0)
                return i; // a scalar ends where its container closes
            if (--depth == 0)
                return i + 1;
            break;
          case ',':
            if (depth == 0)
                return i;
            break;
        }
    }
    return t.size();
}

/** Case @p i of the sweep over @p text (@p other: a splice donor). */
std::string
mutateJson(const std::string &text, const std::string &other, unsigned i,
           std::mt19937_64 &rng)
{
    std::string m = text;
    const Positions pos = scan(text);
    auto pick = [&](const std::vector<std::size_t> &v) {
        return v[rng() % v.size()];
    };
    auto replaceValue = [&](std::size_t at, const std::string &with) {
        m = text.substr(0, at) + with + text.substr(valueEnd(text, at));
    };
    switch (i % 6) {
      case 0: // one to three bit flips
        for (unsigned flips = 1 + rng() % 3; flips > 0; --flips)
            m[rng() % m.size()] ^= static_cast<char>(1u << (rng() % 8));
        break;
      case 1: // cut anywhere
        m.resize(rng() % m.size());
        break;
      case 2: // one document spliced into another
        m = text.substr(0, rng() % text.size()) +
            other.substr(rng() % other.size());
        break;
      case 3: { // a number no counter may hold
        const char *const bad[] = {"1e400", "-1",   "1.5",  "nan",
                                   "inf",   "+1",   "0x10", "1e300",
                                   "01",    "-0",   "18446744073709551616"};
        replaceValue(pick(pos.numbers), bad[rng() % std::size(bad)]);
        break;
      }
      case 4: { // a value of the wrong kind
        const char *const kinds[] = {"\"x\"", "[]", "{}", "true", "null",
                                     "0"};
        replaceValue(pick(pos.values), kinds[rng() % std::size(kinds)]);
        break;
      }
      default: { // nesting up to 100,000 levels, closed or not
        const std::size_t depth = 1 + rng() % 100000;
        std::string deep;
        switch (rng() % 3) {
          case 0:
            deep = std::string(depth, '[');
            break;
          case 1:
            deep = std::string(depth, '[') + std::string(depth, ']');
            break;
          default:
            for (std::size_t d = 0; d < depth; ++d)
                deep += "{\"a\":";
        }
        replaceValue(pick(pos.values), deep);
        break;
      }
    }
    return m;
}

} // namespace

TEST(JsonMutation, HostileDocumentsFailTypedOrDecode)
{
    const std::vector<JsonInput> inputs = sweepInputs();
    constexpr unsigned kCases = 1800; // per input: 10,800 in all
    std::mt19937_64 rng(0x6a736f6eull);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        const JsonInput &in = inputs[k];
        SCOPED_TRACE(in.name);
        ASSERT_NO_THROW(in.decode(in.text)) << in.text;
        unsigned rejected = 0;
        unsigned decoded = 0;
        for (unsigned i = 0; i < kCases; ++i) {
            const std::string m = mutateJson(
                in.text, inputs[(k + 1 + i) % inputs.size()].text, i, rng);
            try {
                in.decode(m);
                ++decoded;
            } catch (const JsonParseError &) {
                ++rejected;
            }
        }
        // Both outcomes occur, so neither half is vacuous.
        EXPECT_GT(rejected, 0u);
        EXPECT_GT(decoded, 0u);
        EXPECT_EQ(rejected + decoded, kCases);
    }
}
