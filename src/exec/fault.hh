/**
 * @file
 * Deterministic fault injection for the multi-process sweep pipeline.
 *
 * A FaultPlan parses `--inject-fault` specs of the form
 *
 *     class@shard:attempt[,class@shard:attempt...]   or bare   class
 *
 * where class ∈ {crash, hang, truncate, corrupt, corrupt-trace}. A bare
 * class applies to attempt 1 of every shard. The supervisor resolves
 * the plan per (shard, attempt) and passes the matched class to the
 * worker via the PP_FAULT environment variable, so every failure is
 * reproducible bit-for-bit: same plan, same shard count, same fault.
 *
 * Worker side, the two apply hooks act on PP_FAULT:
 *  - applyStartFault(): "crash" raises SIGKILL (the kill-9-mid-shard
 *    case), "hang" sleeps forever (the supervisor's deadline kills it).
 *  - applyOutputFault(path): "truncate" halves the result-cache object
 *    of the range's first cell, "corrupt" flips one byte in its middle
 *    — both defeat the object's envelope check, exercising the
 *    corrupt-output path.
 *  - "corrupt-trace" is consumed by TraceFile::loadOrThrow() itself
 *    (program/trace.cc), producing a genuine typed ArtifactError
 *    (HashMismatch) end-to-end; checkpoint-set loads ignore it.
 */

#ifndef PP_EXEC_FAULT_HH
#define PP_EXEC_FAULT_HH

#include <cstddef>
#include <string>
#include <vector>

namespace pp
{
namespace exec
{

/** One injected fault: @p klass on @p shard's @p attempt. */
struct FaultPoint
{
    std::string klass;
    std::size_t shard = 0;
    unsigned attempt = 1;
    bool everyShard = false; ///< bare-class spec: any shard, attempt 1
};

class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Parse an --inject-fault spec; fatal() on malformed input. */
    static FaultPlan parse(const std::string &spec);

    /**
     * The fault class injected into (shard, attempt), or "" for a
     * clean attempt — the value to hand the worker as PP_FAULT.
     */
    std::string classFor(std::size_t shard, unsigned attempt) const;

    bool empty() const { return points_.empty(); }

  private:
    std::vector<FaultPoint> points_;
};

/** True when @p klass names a known fault class. */
bool knownFaultClass(const std::string &klass);

/**
 * Worker-side hooks (no-ops unless PP_FAULT is set — see file
 * comment).
 */
void applyStartFault();
void applyOutputFault(const std::string &path);

} // namespace exec
} // namespace pp

#endif // PP_EXEC_FAULT_HH
