#include "obs/trace_event.hh"

#include <algorithm>
#include <fstream>

#include "common/json_min.hh"

namespace pp
{
namespace obs
{

namespace
{

/**
 * The last generation any Tracer started. Generations are unique across
 * the process, so a thread's cached buffer of a destroyed tracer never
 * matches a new tracer built at the same address.
 */
std::atomic<std::uint64_t> lastGeneration{0};

} // namespace

void
Tracer::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    generation_ = lastGeneration.fetch_add(1) + 1;
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::stop()
{
    enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t
Tracer::nowUs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

Tracer::ThreadBuf &
Tracer::threadBuf()
{
    // Per-thread cache of (tracer, generation) -> buffer so the hot
    // path is lock-free after the first span on each thread. The vector
    // stays tiny: one entry per live Tracer instance this thread used.
    struct CacheEntry
    {
        Tracer *owner;
        std::uint64_t generation;
        ThreadBuf *buf;
    };
    thread_local std::vector<CacheEntry> cache;

    std::uint64_t gen;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        gen = generation_;
    }
    for (CacheEntry &e : cache) {
        if (e.owner == this && e.generation == gen)
            return *e.buf;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuf>());
    ThreadBuf *buf = buffers_.back().get();
    cache.erase(std::remove_if(cache.begin(), cache.end(),
                               [this](const CacheEntry &e) {
                                   return e.owner == this;
                               }),
                cache.end());
    cache.push_back({this, generation_, buf});
    return *buf;
}

void
Tracer::begin(const char *name, const char *cat,
              const std::string &args_id)
{
    if (!enabled())
        return;
    const std::uint64_t ts = nowUs();
    ThreadBuf &buf = threadBuf();
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.ph = 'B';
    ev.ts_us = ts;
    ev.args_id = args_id;
    buf.events.push_back(std::move(ev));
}

void
Tracer::end(const char *name, const char *cat)
{
    if (!enabled())
        return;
    const std::uint64_t ts = nowUs();
    ThreadBuf &buf = threadBuf();
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.ph = 'E';
    ev.ts_us = ts;
    buf.events.push_back(std::move(ev));
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
            for (const TraceEvent &ev : buffers_[tid]->events) {
                out.push_back(ev);
                out.back().tid = static_cast<std::uint32_t>(tid);
            }
        }
    }
    // Stable sort keeps each thread's chronological append order for
    // equal (ts, tid) — which is what B/E nesting relies on.
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.ts_us != b.ts_us)
                             return a.ts_us < b.ts_us;
                         return a.tid < b.tid;
                     });
    return out;
}

void
Tracer::writeJson(std::ostream &os) const
{
    const std::vector<TraceEvent> evs = events();
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &ev : evs) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":\"" << jsonmin::escape(ev.name)
           << "\",\"cat\":\"" << jsonmin::escape(ev.cat)
           << "\",\"ph\":\"" << ev.ph << "\",\"ts\":" << ev.ts_us
           << ",\"pid\":1,\"tid\":" << ev.tid;
        if (ev.ph == 'B' && !ev.args_id.empty()) {
            os << ",\"args\":{\"id\":\"" << jsonmin::escape(ev.args_id)
               << "\"}";
        }
        os << "}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    writeJson(os);
    return os.good();
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

} // namespace obs
} // namespace pp
