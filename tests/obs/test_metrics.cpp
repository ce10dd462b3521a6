/** @file Unit tests for the obs metrics registry. */

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"

using namespace pp;

TEST(Metrics, CounterAndGaugeBasics)
{
    obs::MetricRegistry reg;
    obs::Counter &c = reg.counter("a.count");
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Find-or-create returns the same instrument.
    EXPECT_EQ(&reg.counter("a.count"), &c);

    obs::Gauge &g = reg.gauge("a.gauge");
    g.set(1.5);
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Metrics, RegisteringSameNameAsDifferentKindPanics)
{
    obs::MetricRegistry reg;
    reg.counter("x");
    EXPECT_DEATH(reg.gauge("x"), "");
    EXPECT_DEATH(reg.histogram("x"), "");
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds)
{
    obs::MetricRegistry reg;
    obs::Histogram &h = reg.histogram("h", {1.0, 2.0, 5.0});

    // Bucket i counts x <= edges[i]; past the last edge -> overflow.
    h.observe(0.5);  // bucket 0
    h.observe(1.0);  // bucket 0 (edge is inclusive)
    h.observe(1.01); // bucket 1
    h.observe(2.0);  // bucket 1
    h.observe(4.9);  // bucket 2
    h.observe(5.0);  // bucket 2
    h.observe(5.1);  // overflow
    h.observe(1e9);  // overflow

    const std::vector<std::uint64_t> buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 2u);
    EXPECT_EQ(buckets[2], 2u);
    EXPECT_EQ(buckets[3], 2u);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.01 + 2.0 + 4.9 + 5.0 + 5.1 + 1e9);
}

TEST(Metrics, HistogramEdgesMustBeStrictlyIncreasing)
{
    obs::MetricRegistry reg;
    EXPECT_DEATH(reg.histogram("bad", {1.0, 1.0}), "");
    EXPECT_DEATH(reg.histogram("bad2", {2.0, 1.0}), "");
    EXPECT_DEATH(reg.histogram("empty", std::vector<double>{}), "");
    // Re-registering with different edges is a bug too.
    reg.histogram("h", {1.0, 2.0});
    EXPECT_DEATH(reg.histogram("h", {1.0, 3.0}), "");
}

TEST(Metrics, SnapshotIsSortedByNameAtAnyThreadCount)
{
    // Race registrations from several threads in deliberately shuffled
    // orders; the snapshot must come out name-sorted regardless.
    for (const int nthreads : {1, 4}) {
        obs::MetricRegistry reg;
        const std::vector<std::string> names = {
            "z.last", "a.first", "m.mid", "b.second", "q.late"};
        std::atomic<int> go{0};
        std::vector<std::thread> workers;
        for (int t = 0; t < nthreads; ++t) {
            workers.emplace_back([&, t] {
                go.fetch_add(1);
                while (go.load() < nthreads) {
                }
                for (std::size_t i = 0; i < names.size(); ++i) {
                    const std::size_t at =
                        (i + static_cast<std::size_t>(t)) % names.size();
                    reg.counter(names[at]).add();
                }
            });
        }
        for (std::thread &w : workers)
            w.join();

        const obs::MetricSnapshot snap = reg.snapshot();
        ASSERT_EQ(snap.entries.size(), names.size());
        for (std::size_t i = 1; i < snap.entries.size(); ++i)
            EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
        for (const obs::MetricEntry &e : snap.entries)
            EXPECT_EQ(e.count, static_cast<std::uint64_t>(nthreads));
    }
}

TEST(Metrics, SnapshotJsonIsDeterministic)
{
    auto build = [] {
        auto reg = std::make_unique<obs::MetricRegistry>();
        reg->gauge("g.pi").set(3.25);
        reg->counter("c.runs").add(7);
        reg->histogram("h.ms", {1.0, 10.0}).observe(0.5);
        reg->histogram("h.ms", {1.0, 10.0}).observe(100.0);
        return reg;
    };
    const std::string a = build()->snapshot().toJson();
    const std::string b = build()->snapshot().toJson();
    EXPECT_EQ(a, b);
    // The whole string is pinned: names in order, counters as
    // integers, doubles as %.17g, histograms with edges and buckets.
    EXPECT_EQ(a, "{\"c.runs\":7,\"g.pi\":3.25,\"h.ms\":{\"count\":2,"
                 "\"sum\":100.5,\"edges\":[1,10],\"buckets\":[1,0,1]}}");
}

TEST(Metrics, ConcurrentHistogramObservationsAreExact)
{
    obs::MetricRegistry reg;
    obs::Histogram &h = reg.histogram("ms");
    constexpr int kThreads = 4;
    constexpr int kPer = 10000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&] {
            for (int i = 0; i < kPer; ++i)
                h.observe(1.0);
        });
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPer));
    EXPECT_DOUBLE_EQ(h.sum(), kThreads * kPer * 1.0);
}

TEST(Metrics, ResetDropsAllInstruments)
{
    obs::MetricRegistry reg;
    reg.counter("c").add(3);
    reg.reset();
    EXPECT_TRUE(reg.snapshot().entries.empty());
    EXPECT_EQ(reg.counter("c").value(), 0u);
}
