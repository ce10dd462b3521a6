/**
 * @file
 * Trace record/replay: the versioned workload artifact.
 *
 * A TraceFile is a self-contained, byte-serializable capture of one
 * generated workload: the assembled ISA image (instructions, condition
 * specs, data-segment size), the per-condition dynamic outcome streams
 * an emulator drew while executing it, and identifying metadata
 * (benchmark name, generation seed, if-conversion variant, recorded
 * instruction count). Replaying a trace reconstructs the exact dynamic
 * instruction stream of the recording run with every generation code
 * path — codegen, if-conversion profiling, condition RNG — disabled:
 * the program comes from the image, the outcomes from the streams.
 *
 * Because the functional stream is scheme-independent (the timing model
 * only *consumes* the oracle), one trace per (benchmark, if-conversion)
 * cell serves every scheme, core-config and sampling-policy column of a
 * sweep, full or sampled, bit-identically. That is what makes a trace
 * the unit of distribution: a remote worker needs the artifact, not the
 * generator plus a seed.
 *
 * Serialization is the artifact codec every binary format shares
 * (common/bytestream.hh): a frame of magic, format version and FNV-1a
 * content hash over the payload, verified before any decode, and a
 * decoder that turns every malformed byte into a typed ArtifactError.
 */

#ifndef PP_PROGRAM_TRACE_HH
#define PP_PROGRAM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytestream.hh"
#include "program/condition.hh"
#include "program/program.hh"

namespace pp
{
namespace program
{

class DecodedProgram;

/** Trace format version accepted by this build. */
constexpr std::uint64_t kTraceVersion = 1;

/**
 * Extra instructions recorded past the region a run needs: the timing
 * core's oracle runs ahead of commit by up to the in-flight window
 * (ROB + fetch buffer + one produce() batch), so the recorded horizon
 * must cover the largest plausible lookahead of any consumer config.
 * Generously sized — the storage cost is a few KB of condition bits.
 */
constexpr std::uint64_t kTraceRecordSlack = 1ull << 16;

class TraceFile
{
  public:
    /** Identifying metadata (validated against the consuming RunSpec). */
    struct Meta
    {
        std::string benchmark;       ///< profile name
        bool isFp = false;
        bool ifConverted = false;
        std::uint64_t seed = 0;      ///< profile seed (provenance)
        std::uint64_t instCount = 0; ///< dynamic instructions recorded
    };

    TraceFile(Meta meta, Program binary,
              std::vector<ConditionStream> streams);

    /**
     * Record a trace: execute @p binary functionally for @p n_insts
     * instructions on an emulator seeded @p emu_seed (must equal the
     * seed the consuming runs construct their cores with — the streams
     * are the outcomes that seed draws), capturing every condition
     * outcome. @p decoded optionally shares a predecode of @p binary.
     * meta.instCount is filled in from @p n_insts.
     */
    static TraceFile record(const Program &binary, Meta meta,
                            std::uint64_t emu_seed, std::uint64_t n_insts,
                            const DecodedProgram *decoded = nullptr);

    const Meta &meta() const { return meta_; }

    /** The embedded program image (self-contained; no codegen needed). */
    const Program &binary() const { return binary_; }

    /** Per-condition recorded outcome streams. */
    const std::vector<ConditionStream> &streams() const { return streams_; }

    /**
     * FNV-1a 64-bit hash of the serialized payload: the artifact's
     * content identity, verified on every load and surfaced per run in
     * the sweep sinks.
     */
    std::uint64_t contentHash() const { return hash_; }

    /** contentHash() as 16 lowercase hex digits. */
    std::string contentHashHex() const;

    /**
     * Throw ArtifactError (Kind::Mismatch) unless this trace matches the
     * run that wants to consume it (benchmark/seed/if-conversion
     * identity, and a recorded horizon of at least @p min_insts) — a
     * stale or mis-keyed trace directory must fail loudly, not simulate
     * the wrong workload.
     */
    void validate(const std::string &benchmark, std::uint64_t seed,
                  bool if_converted, std::uint64_t min_insts) const;

    /** Portable little-endian byte image (versioned, content-hashed). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Parse a serialize() image read from @p path ("" in memory: the
     * path only names the file in errors and in validate()). Throws
     * ArtifactError on truncation, bad magic/version, a content-hash
     * mismatch (checked before any structural decode) or malformed
     * structure.
     */
    static TraceFile deserialize(const std::vector<std::uint8_t> &bytes,
                                 const std::string &path = "");

    /**
     * Write the serialized image to @p path atomically (storeArtifact(),
     * common/bytestream.hh); panic on I/O failure.
     */
    void store(const std::string &path) const;

    /**
     * Read @p path and deserialize() it; throws ArtifactError, of kind
     * Io when the file cannot be read.
     */
    static TraceFile loadOrThrow(const std::string &path);

  private:
    /** deserialize()'s ctor: adopts the already-verified hash instead
     *  of re-serializing the whole payload to recompute it (and leaves
     *  the stream count to deserialize()'s typed check). */
    TraceFile(Meta meta, Program binary,
              std::vector<ConditionStream> streams, std::uint64_t hash);

    std::vector<std::uint8_t> payload() const;

    Meta meta_;
    Program binary_;
    std::vector<ConditionStream> streams_;
    std::uint64_t hash_ = 0;
    std::string path_; ///< file loaded from; empty when recorded
};

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_TRACE_HH
