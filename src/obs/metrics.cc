#include "obs/metrics.hh"

#include <algorithm>
#include <sstream>

#include "common/json_min.hh"
#include "common/logging.hh"

namespace pp
{
namespace obs
{

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges))
{
    panicIfNot(!edges_.empty(), "histogram needs at least one edge");
    panicIfNot(std::is_sorted(edges_.begin(), edges_.end()) &&
                   std::adjacent_find(edges_.begin(), edges_.end()) ==
                       edges_.end(),
               "histogram edges must be strictly increasing");
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        edges_.size() + 1);
    for (std::size_t i = 0; i <= edges_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double x)
{
    const auto it = std::lower_bound(edges_.begin(), edges_.end(), x);
    const std::size_t idx =
        static_cast<std::size_t>(it - edges_.begin()); // overflow: size()
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // C++17 atomic<double> has no fetch_add; CAS-loop the sum.
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + x,
                                       std::memory_order_relaxed)) {
    }
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(edges_.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

double
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

std::vector<double>
Histogram::defaultMsEdges()
{
    return {0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
            1000, 2000, 5000, 10000, 20000, 50000, 100000};
}

// ---------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = instruments_.find(name);
    if (it == instruments_.end()) {
        Instrument ins;
        ins.kind = MetricEntry::Kind::Counter;
        ins.counter = std::make_unique<Counter>();
        it = instruments_.emplace(name, std::move(ins)).first;
    }
    if (it->second.kind != MetricEntry::Kind::Counter)
        panic("metric '" + name + "' is not a counter");
    return *it->second.counter;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = instruments_.find(name);
    if (it == instruments_.end()) {
        Instrument ins;
        ins.kind = MetricEntry::Kind::Gauge;
        ins.gauge = std::make_unique<Gauge>();
        it = instruments_.emplace(name, std::move(ins)).first;
    }
    if (it->second.kind != MetricEntry::Kind::Gauge)
        panic("metric '" + name + "' is not a gauge");
    return *it->second.gauge;
}

Histogram &
MetricRegistry::histogram(const std::string &name,
                          std::vector<double> edges)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = instruments_.find(name);
    if (it == instruments_.end()) {
        Instrument ins;
        ins.kind = MetricEntry::Kind::Histogram;
        ins.histogram = std::make_unique<Histogram>(std::move(edges));
        it = instruments_.emplace(name, std::move(ins)).first;
    } else {
        if (it->second.kind != MetricEntry::Kind::Histogram)
            panic("metric '" + name + "' is not a histogram");
        if (it->second.histogram->edges() != edges)
            panic("metric '" + name + "' re-registered with different "
                  "edges");
    }
    return *it->second.histogram;
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricSnapshot snap;
    snap.entries.reserve(instruments_.size());
    // std::map iterates in name order — the deterministic contract.
    for (const auto &[name, ins] : instruments_) {
        MetricEntry e;
        e.name = name;
        e.kind = ins.kind;
        switch (ins.kind) {
          case MetricEntry::Kind::Counter:
            e.count = ins.counter->value();
            break;
          case MetricEntry::Kind::Gauge:
            e.value = ins.gauge->value();
            break;
          case MetricEntry::Kind::Histogram:
            e.count = ins.histogram->count();
            e.value = ins.histogram->sum();
            e.edges = ins.histogram->edges();
            e.buckets = ins.histogram->bucketCounts();
            break;
        }
        snap.entries.push_back(std::move(e));
    }
    return snap;
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    instruments_.clear();
}

// ---------------------------------------------------------------------
// MetricSnapshot serialization
// ---------------------------------------------------------------------

void
MetricSnapshot::writeJson(std::ostream &os) const
{
    jsonmin::JsonWriter w(os);
    w.beginObject();
    for (const MetricEntry &e : entries) {
        w.key(e.name);
        switch (e.kind) {
          case MetricEntry::Kind::Counter:
            w.value(e.count);
            break;
          case MetricEntry::Kind::Gauge:
            w.value(e.value);
            break;
          case MetricEntry::Kind::Histogram:
            w.beginObject().field("count", e.count).field("sum", e.value);
            w.key("edges").beginArray();
            for (const double edge : e.edges)
                w.value(edge);
            w.endArray().key("buckets").beginArray();
            for (const std::uint64_t b : e.buckets)
                w.value(b);
            w.endArray().endObject();
            break;
        }
    }
    w.endObject();
}

std::string
MetricSnapshot::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

MetricRegistry &
metrics()
{
    static MetricRegistry registry;
    return registry;
}

} // namespace obs
} // namespace pp
