/**
 * @file
 * Chrome trace-event (Perfetto-loadable) span tracer.
 *
 * Records begin/end ("B"/"E") duration events across the sweep thread
 * pool and serializes them as the Trace Event Format JSON that
 * chrome://tracing and ui.perfetto.dev load directly:
 *
 *     {"traceEvents":[
 *       {"name":"run","cat":"sweep","ph":"B","ts":12,"pid":1,"tid":0,
 *        "args":{"id":"rob64_iq24"}},
 *       {"name":"run","cat":"sweep","ph":"E","ts":940,"pid":1,"tid":0},
 *       ...]}
 *
 * Design:
 *  - The tracer is disabled by default; enabled() is a relaxed atomic
 *    load, so an un-traced run pays one branch per would-be span.
 *  - Each OS thread appends to its own event buffer (registered once
 *    under a mutex, then lock-free), so workers never contend. Thread
 *    ids are dense small integers assigned in registration order.
 *  - Timestamps are microseconds from start(); per-thread append order
 *    is chronological, which is all B/E nesting needs.
 *  - ScopedSpan is the RAII entry point: emits B at construction and E
 *    at destruction when the tracer is enabled at construction time.
 *
 * The process-global tracer is obs::tracer(); tests build private
 * Tracer instances.
 */

#ifndef PP_OBS_TRACE_EVENT_HH
#define PP_OBS_TRACE_EVENT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pp
{
namespace obs
{

/** One trace event; ph is 'B' (begin) or 'E' (end). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char ph = 'B';
    std::uint64_t ts_us = 0;
    std::uint32_t tid = 0;
    std::string args_id;    ///< optional args.id payload ("" = none)
};

class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Clear any recorded events and begin recording at ts 0. */
    void start();

    /** Stop recording; recorded events remain until the next start(). */
    void stop();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Emit a begin event on the calling thread. No-op when disabled. */
    void begin(const char *name, const char *cat,
               const std::string &args_id = std::string());

    /** Emit the matching end event. No-op when disabled. */
    void end(const char *name, const char *cat);

    /**
     * All recorded events, merged across threads and sorted by
     * (ts, tid, B-before-E-at-equal-ts). Call after the traced work has
     * quiesced (workers joined).
     */
    std::vector<TraceEvent> events() const;

    /** Serialize as Trace Event Format JSON. */
    void writeJson(std::ostream &os) const;

    /** writeJson() to @p path; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct ThreadBuf
    {
        std::vector<TraceEvent> events;
    };

    ThreadBuf &threadBuf();
    std::uint64_t nowUs() const;

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_{};

    mutable std::mutex mutex_;  ///< guards buffers_ growth + generation
    std::vector<std::unique_ptr<ThreadBuf>> buffers_;
    std::uint64_t generation_ = 0;  ///< set by start(), unique across
                                    ///< tracers, to invalidate threads'
                                    ///< cached buffers
};

/** RAII span: B on construction, E on destruction (if enabled at B). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, const char *cat,
               const std::string &args_id = std::string())
        : tracer_(tracer), name_(name), cat_(cat),
          active_(tracer.enabled())
    {
        if (active_)
            tracer_.begin(name_, cat_, args_id);
    }

    ~ScopedSpan()
    {
        if (active_)
            tracer_.end(name_, cat_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    const char *name_;
    const char *cat_;
    bool active_;
};

/** The process-global tracer. */
Tracer &tracer();

} // namespace obs
} // namespace pp

#endif // PP_OBS_TRACE_EVENT_HH
