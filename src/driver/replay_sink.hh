/**
 * @file
 * pp.replay.v1: the versioned result document of a predictor-replay
 * sweep (replay/predictor_replay.hh, SweepEngine::runReplay).
 *
 * Layout:
 *   {"schema": "pp.replay.v1",
 *    "workloads": [{benchmark, if_convert, trace_hash, windows,
 *                   stream geometry, *host_ms,
 *                   "configs": [{name, storage_bytes, counters...,
 *                                mispred_pct, mpki}, ...]}, ...],
 *    "summary": {workloads, configs, streams_built, stream_events,
 *                cond_branches, total_host_ms}}
 *
 * Determinism matches pp.sweep.v1: fixed key order, %.17g floats, and
 * every nondeterministic wall-time field carries the "host_ms" suffix
 * so byte-identity comparisons scrub exactly the same key pattern.
 * Full spec: docs/replay_format.md.
 */

#ifndef PP_DRIVER_REPLAY_SINK_HH
#define PP_DRIVER_REPLAY_SINK_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/result_sink.hh"
#include "replay/predictor_replay.hh"

namespace pp
{
namespace driver
{

/**
 * Emit one pp.replay.v1 config object (fixed field order). The derived
 * rates (mispred_pct, mpki) are pure functions of the counters and
 * @p measure_insts, so re-emitting a parsed object reproduces the
 * original bytes — which is what lets the result cache hold config
 * objects by their exact emitter bytes.
 */
void writeReplayConfigJson(JsonWriter &w,
                           const replay::ReplayConfigResult &c,
                           std::uint64_t measure_insts);

/**
 * Rebuild a ReplayConfigResult from one pp.replay.v1 config object —
 * the inverse of writeReplayConfigJson for every counter field (the
 * derived rates are recomputed at emission). Throws
 * jsonmin::JsonParseError on a syntax error or a missing or mistyped
 * field.
 */
replay::ReplayConfigResult
parseReplayConfigJson(const jsonmin::JsonValue &doc);

/** parseReplayConfigJson over serialized text (one config object). */
replay::ReplayConfigResult parseReplayConfigJson(const std::string &text);

/** Emit one pp.replay.v1 workload object (fixed field order). */
void writeReplayWorkloadJson(JsonWriter &w,
                             const replay::ReplayWorkloadResult &r);

/** Serialize a full pp.replay.v1 document. */
void writeReplayJson(std::ostream &os,
                     const std::vector<replay::ReplayWorkloadResult> &rs);

/** writeReplayJson to a string (byte-identity tests). */
std::string
replayJsonString(const std::vector<replay::ReplayWorkloadResult> &rs);

/** writeReplayJson to @p path ("-" = stdout), atomically. */
void
writeReplayJsonFile(const std::string &path,
                    const std::vector<replay::ReplayWorkloadResult> &rs);

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_REPLAY_SINK_HH
