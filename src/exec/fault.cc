#include "exec/fault.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "common/logging.hh"

namespace pp
{
namespace exec
{

namespace
{

const char *const kClasses[] = {"crash", "hang", "truncate", "corrupt",
                                "corrupt-trace"};

std::string
armedFault()
{
    const char *v = std::getenv("PP_FAULT");
    return v == nullptr ? "" : v;
}

} // namespace

bool
knownFaultClass(const std::string &klass)
{
    for (const char *c : kClasses)
        if (klass == c)
            return true;
    return false;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::size_t at = 0;
    while (at < spec.size()) {
        std::size_t comma = spec.find(',', at);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(at, comma - at);
        at = comma + 1;
        if (item.empty())
            continue;

        FaultPoint p;
        const std::size_t amp = item.find('@');
        if (amp == std::string::npos) {
            p.klass = item;
            p.everyShard = true;
        } else {
            p.klass = item.substr(0, amp);
            const std::string where = item.substr(amp + 1);
            const std::size_t colon = where.find(':');
            char *end = nullptr;
            p.shard = static_cast<std::size_t>(
                std::strtoull(where.c_str(), &end, 10));
            const bool shard_ok =
                end != where.c_str() &&
                (colon == std::string::npos
                     ? *end == '\0'
                     : end == where.c_str() + colon);
            bool attempt_ok = true;
            if (colon != std::string::npos) {
                const char *astr = where.c_str() + colon + 1;
                p.attempt =
                    static_cast<unsigned>(std::strtoul(astr, &end, 10));
                attempt_ok = end != astr && *end == '\0' && p.attempt >= 1;
            }
            if (!shard_ok || !attempt_ok) {
                fatal("bad --inject-fault item '" + item +
                      "' (want class@shard[:attempt])");
            }
        }
        if (!knownFaultClass(p.klass)) {
            fatal("unknown fault class '" + p.klass +
                  "' (want crash|hang|truncate|corrupt|corrupt-trace)");
        }
        plan.points_.push_back(std::move(p));
    }
    return plan;
}

std::string
FaultPlan::classFor(std::size_t shard, unsigned attempt) const
{
    for (const FaultPoint &p : points_) {
        if (p.everyShard && attempt == 1)
            return p.klass;
        if (!p.everyShard && p.shard == shard && p.attempt == attempt)
            return p.klass;
    }
    return "";
}

void
applyStartFault()
{
    const std::string fault = armedFault();
    if (fault == "crash") {
        // The kill-9-mid-shard case: die without flushing, without
        // destructors, without a goodbye — exactly what a OOM-killed or
        // segfaulting worker looks like to the supervisor.
        ::raise(SIGKILL);
    } else if (fault == "hang") {
        // Sleep far past any sane deadline; the supervisor's timeout
        // SIGKILLs us.
        for (;;)
            std::this_thread::sleep_for(std::chrono::hours(1));
    }
}

void
applyOutputFault(const std::string &path)
{
    const std::string fault = armedFault();
    if (fault == "truncate") {
        // Torn write: keep the first half of the object. (Plain
        // truncate(2) — this hook simulates the damage atomic_io
        // prevents.)
        std::ifstream is(path, std::ios::binary | std::ios::ate);
        if (!is)
            return;
        const std::streamsize size = is.tellg();
        if (::truncate(path.c_str(), size / 2) != 0)
            warn("fault injection: truncate failed on " + path);
    } else if (fault == "corrupt") {
        // Bit rot: flip one byte in the middle, inside the key text or
        // the entry, so the envelope parses, keys or hashes wrong.
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        if (!f)
            return;
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        if (size <= 0)
            return;
        f.seekg(size / 2);
        char c = 0;
        f.get(c);
        c = static_cast<char>(c ^ 0x01);
        f.seekp(size / 2);
        f.put(c);
    }
}

} // namespace exec
} // namespace pp
