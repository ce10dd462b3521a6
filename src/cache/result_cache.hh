/**
 * @file
 * Content-addressed result cache: the pp.rcache.v1 store.
 *
 * A cache entry maps the full semantic identity of one experiment cell
 * — workload (trace content hash, or the complete generator profile),
 * core configuration, prediction scheme, sampling policy, run window,
 * result-document schema version and a code-version salt — to the
 * exact emitter bytes of that cell's result object (one pp.sweep.v1
 * run object, or one pp.replay.v1 config object). Because the value is
 * the bytes the sink would have written, a warm sweep re-emits a
 * byte-identical document without executing a single simulation.
 *
 * The store is an on-disk directory, one object file per cell:
 * "<dir>/objects/<fnv1a(key) 16hex>.json", written atomically
 * (common/atomic_io.hh), so entries survive processes and ship between
 * hosts via a shared directory. It is also how --shards workers
 * deliver their cells: each stores its range here, and the supervisor
 * reads every cell back (exec/shard_supervisor.hh).
 * Every lookup reads and verifies the object: a sweep probes each cell
 * once, before it stores any, so an in-memory copy would answer only
 * a duplicate spec's second lookup, which the disk answers the same.
 *
 * Each object is a self-checking envelope:
 *
 *   {"schema":"pp.rcache.v1","key_hash":"<16hex>",
 *    "payload_hash":"<16hex>","key":"<full key text>",
 *    "entry":<result bytes>}
 *
 * The embedded key defeats filename aliasing (a 64-bit hash collision
 * can never serve the wrong cell), and payload_hash covers the exact
 * entry bytes. ANY damage — truncation, bit rot, a wrong or missing
 * field — is a typed ResultCacheError internally and a plain miss at
 * the lookup() API: never a panic, never a stale hit. The damaged cell
 * simply re-simulates and the entry is rewritten.
 *
 * Key derivation, the salt policy and invalidation rules are specified
 * in docs/result_cache_format.md.
 */

#ifndef PP_CACHE_RESULT_CACHE_HH
#define PP_CACHE_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "driver/run_matrix.hh"
#include "replay/predictor_replay.hh"

namespace pp
{
namespace cache
{

/**
 * Code-version salt folded into every cache key. Bump whenever
 * simulator semantics change in a way that must invalidate previously
 * cached results (new predictor behavior, changed stat definitions,
 * emitter field changes, ...). See docs/result_cache_format.md.
 */
constexpr unsigned kResultCacheSalt = 1;

/** A damaged or mismatched pp.rcache.v1 entry. Always recoverable:
 *  lookup() converts it into a miss (and a corrupt-entry stat). */
class ResultCacheError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** What one ResultCache instance observed (real cache behavior — NOT
 *  part of any deterministic document; see SweepCounters for those). */
struct ResultCacheStats
{
    std::uint64_t hits = 0;     ///< lookups served
    std::uint64_t misses = 0;   ///< lookups not served
    std::uint64_t stores = 0;   ///< entries written
    std::uint64_t corrupt = 0;  ///< damaged entries (subset of misses)
};

/** @name Key-text builders
 *  The key is human-readable "k=v" text; the store addresses objects by
 *  its FNV-1a hash but verifies the full text on every disk hit.
 */
/// @{

/** Complete serialization of a core configuration (every field,
 *  component predictor and memory-system geometry included). */
std::string coreConfigKeyText(const core::CoreConfig &c);

/** Complete serialization of a scheme configuration. */
std::string schemeConfigKeyText(const sim::SchemeConfig &s);

/**
 * Workload identity: "trace:<content hash>" when the workload is a
 * trace artifact (@p trace_hash non-empty), else the full profile
 * serialization plus the if-conversion flag.
 */
std::string workloadIdentity(const sim::Workload &workload,
                             const std::string &trace_hash);

/**
 * Full cache key of one sweep cell: salt + pp.sweep.v1 + workload
 * identity + scheme + config + sampling policy + run window.
 */
std::string runKeyText(const driver::RunSpec &spec,
                       const std::string &workload_identity);

/**
 * The key a sweep stores @p spec's cell under: runKeyText() over
 * workloadIdentity(), with @p trace_hash the content hash of the
 * spec's trace artifact (TraceFile::contentHashHex(); empty for a
 * generated workload). SweepEngine::run and the shard supervisor both
 * derive cell keys here, so the supervisor finds exactly the objects
 * its workers stored.
 */
std::string cellKeyText(const driver::RunSpec &spec,
                        const std::string &trace_hash);

/**
 * Full cache key of one replay (workload, config) cell: salt +
 * pp.replay.v1 + workload identity + window + the replay config's
 * scheme and core configuration.
 */
std::string replayKeyText(const replay::ReplayWorkloadSpec &workload,
                          const std::string &workload_identity,
                          const replay::ReplayConfig &config);

/**
 * Pure spec-level result identity for the deterministic summary
 * counters (results_cached / result_cache_hits): the workload falls
 * back to buildKey(), so the value is a function of the spec list
 * alone — independent of artifact contents and disk-cache state, like
 * checkpoints_built.
 */
std::string runCounterKey(const driver::RunSpec &spec);

/// @}

class ResultCache
{
  public:
    /** @p dir: the store's directory (objects/ is created on first
     *  store). */
    explicit ResultCache(std::string dir);

    /**
     * Exact result bytes for @p key_text, or nullopt on a miss. A
     * damaged entry is a miss (counted in stats().corrupt), never a
     * panic and never a stale hit.
     */
    std::optional<std::string> lookup(const std::string &key_text);

    /**
     * Write @p payload under @p key_text atomically, replacing any
     * object already there.
     */
    void store(const std::string &key_text, const std::string &payload);

    ResultCacheStats stats() const;

    /** Object-file path a key maps to. */
    std::string objectPath(const std::string &key_text) const;

    /**
     * Parse + verify one pp.rcache.v1 object file against @p key_text
     * and return the exact payload bytes. Throws ResultCacheError on
     * any damage or mismatch (lookup() treats that as a miss).
     */
    static std::string readEntry(const std::string &path,
                                 const std::string &key_text);

    /** Serialize one pp.rcache.v1 envelope (exposed for tests). */
    static std::string envelopeJson(const std::string &key_text,
                                    const std::string &payload);

  private:
    std::string dir_;
    mutable std::mutex mutex_;
    ResultCacheStats stats_;
};

} // namespace cache
} // namespace pp

#endif // PP_CACHE_RESULT_CACHE_HH
