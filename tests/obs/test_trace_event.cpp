/** @file Unit tests for the Chrome trace-event span tracer. */

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_min.hh"
#include "obs/trace_event.hh"

using namespace pp;
using pp::jsonmin::JsonValue;

namespace
{

/** Run a fixed span workload on @p nthreads threads. */
void
runWorkload(obs::Tracer &tracer, int nthreads)
{
    std::vector<std::thread> workers;
    for (int t = 0; t < nthreads; ++t) {
        workers.emplace_back([&tracer, t] {
            for (int i = 0; i < 3; ++i) {
                obs::ScopedSpan run(tracer, "run", "sweep",
                                    "job" + std::to_string(t));
                obs::ScopedSpan window(tracer, "detailed_window", "sim");
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
}

/** name -> count of events with phase @p ph. */
std::map<std::string, int>
phaseCounts(const std::vector<obs::TraceEvent> &events, char ph)
{
    std::map<std::string, int> out;
    for (const obs::TraceEvent &e : events)
        if (e.ph == ph)
            ++out[e.name];
    return out;
}

} // namespace

TEST(TraceEvent, DisabledTracerRecordsNothing)
{
    obs::Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    runWorkload(tracer, 2);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(TraceEvent, SpansBalanceAndNestPerThread)
{
    obs::Tracer tracer;
    tracer.start();
    runWorkload(tracer, 4);
    tracer.stop();

    const std::vector<obs::TraceEvent> events = tracer.events();
    // 4 threads x 3 iterations x 2 spans x {B, E}.
    EXPECT_EQ(events.size(), 4u * 3u * 2u * 2u);
    EXPECT_EQ(phaseCounts(events, 'B'), phaseCounts(events, 'E'));

    // Per thread, events are chronological and B/E nest like brackets.
    std::map<std::uint32_t, std::vector<const obs::TraceEvent *>> by_tid;
    for (const obs::TraceEvent &e : events)
        by_tid[e.tid].push_back(&e);
    EXPECT_EQ(by_tid.size(), 4u);
    for (const auto &[tid, seq] : by_tid) {
        (void)tid;
        std::vector<std::string> stack;
        std::uint64_t last_ts = 0;
        for (const obs::TraceEvent *e : seq) {
            EXPECT_GE(e->ts_us, last_ts);
            last_ts = e->ts_us;
            if (e->ph == 'B') {
                stack.push_back(e->name);
            } else {
                ASSERT_FALSE(stack.empty());
                EXPECT_EQ(stack.back(), e->name);
                stack.pop_back();
            }
        }
        EXPECT_TRUE(stack.empty());
    }
}

TEST(TraceEvent, SpanStructureIsStableAcrossThreadCounts)
{
    // The per-thread workload is fixed, so the span names and per-thread
    // counts must be identical at any thread count — only tids and
    // timestamps differ.
    std::map<std::string, int> per_thread[2];
    int at = 0;
    for (const int nthreads : {1, 4}) {
        obs::Tracer tracer;
        tracer.start();
        runWorkload(tracer, nthreads);
        tracer.stop();
        std::map<std::string, int> c = phaseCounts(tracer.events(), 'B');
        for (auto &[name, n] : c) {
            (void)name;
            EXPECT_EQ(n % nthreads, 0);
            n /= nthreads;
        }
        per_thread[at++] = c;
    }
    EXPECT_EQ(per_thread[0], per_thread[1]);
}

TEST(TraceEvent, JsonOutputParsesAndCarriesArgs)
{
    obs::Tracer tracer;
    tracer.start();
    {
        obs::ScopedSpan s(tracer, "run", "sweep", "gzip/peppa \"q\"");
    }
    tracer.stop();

    std::ostringstream os;
    tracer.writeJson(os);
    const JsonValue doc = jsonmin::parseJson(os.str());

    const JsonValue *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);
    ASSERT_EQ(events->items.size(), 2u);
    const JsonValue *unit = doc.get("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->str, "ms");

    const JsonValue &b = events->items[0];
    EXPECT_EQ(b.get("name")->str, "run");
    EXPECT_EQ(b.get("cat")->str, "sweep");
    EXPECT_EQ(b.get("ph")->str, "B");
    EXPECT_EQ(b.get("pid")->number, 1.0);
    ASSERT_NE(b.get("args"), nullptr);
    // The args id round-trips through JSON escaping.
    EXPECT_EQ(b.get("args")->get("id")->str, "gzip/peppa \"q\"");

    const JsonValue &e = events->items[1];
    EXPECT_EQ(e.get("ph")->str, "E");
    EXPECT_EQ(e.get("args"), nullptr);
    EXPECT_GE(e.get("ts")->number, b.get("ts")->number);
}

TEST(TraceEvent, ControlBytesInSpanNamesParseBack)
{
    // Every byte below 0x20 leaves the writer escaped, so the span file
    // stays valid JSON and its names read back exactly.
    const std::string name = "a\rb\nc\td\x01e\x1f";
    obs::Tracer tracer;
    tracer.start();
    {
        obs::ScopedSpan s(tracer, name.c_str(), "cat\r", "id\x02");
    }
    tracer.stop();

    std::ostringstream os;
    tracer.writeJson(os);
    for (const char c : os.str())
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control byte " << static_cast<int>(c);
    const JsonValue doc = jsonmin::parseJson(os.str());
    const JsonValue &b = doc.get("traceEvents")->items.at(0);
    EXPECT_EQ(b.get("name")->str, name);
    EXPECT_EQ(b.get("cat")->str, "cat\r");
    EXPECT_EQ(b.get("args")->get("id")->str, "id\x02");
}

TEST(TraceEvent, StartClearsPriorEventsAndReenables)
{
    obs::Tracer tracer;
    tracer.start();
    {
        obs::ScopedSpan s(tracer, "old", "x");
    }
    tracer.stop();
    EXPECT_EQ(tracer.events().size(), 2u);

    tracer.start();
    {
        obs::ScopedSpan s(tracer, "new", "x");
    }
    tracer.stop();
    const std::vector<obs::TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "new");
}

TEST(TraceEvent, SpanInFlightWhenTracingStopsStaysBalancedInOutput)
{
    // A ScopedSpan constructed while the tracer is disabled must not
    // emit a dangling E if tracing starts before it dies.
    obs::Tracer tracer;
    {
        obs::ScopedSpan pre(tracer, "pre", "x");
        tracer.start();
    }
    {
        obs::ScopedSpan s(tracer, "live", "x");
    }
    tracer.stop();
    const std::vector<obs::TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].name, "live");
    EXPECT_EQ(phaseCounts(events, 'B'), phaseCounts(events, 'E'));
}
