/**
 * @file
 * Crash-safe file writes.
 *
 * Every durable artifact in the repo — result sinks, trace artifacts,
 * sweep-store objects and index, shard fragments, result-cache
 * objects — goes through one of two primitives:
 *
 *  - writeFileAtomic(): write the whole document to
 *    "<path>.tmp.<pid>.<n>" (n counts the process's calls, so no two
 *    writers share a tmp file) and rename(2) it into place. rename is
 *    atomic on POSIX, so a reader (or a process resuming after a
 *    crash) sees either the old complete file or the new complete
 *    file, never a torn prefix.
 *  - appendLineDurable(): append one newline-terminated line with a
 *    single write(2) on an O_APPEND descriptor. POSIX serializes
 *    O_APPEND writes, so concurrent appenders never interleave bytes
 *    and a killed process never leaves a partial line followed by a
 *    later complete one (the partial line, if any, is last — readers
 *    tolerate a torn final line).
 *
 * Both return false with errno-style detail via @p error instead of
 * exiting: the fault-tolerant supervisor classifies I/O failures, it
 * must not die on them. Callers that want the old fatal() behavior wrap
 * the boolean. readFileBytes(), the whole-file read the binary artifact
 * loaders share, reports failure the same way.
 */

#ifndef PP_COMMON_ATOMIC_IO_HH
#define PP_COMMON_ATOMIC_IO_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pp
{

/**
 * Atomically replace @p path with @p contents (tmp file + rename).
 * Returns false and fills @p error on failure; the tmp file is removed
 * on any failed step.
 */
bool writeFileAtomic(const std::string &path, const std::string &contents,
                     std::string *error = nullptr);

/**
 * Append @p line (a '\n' is added if missing) to @p path with one
 * write(2) on an O_APPEND|O_CREAT descriptor.
 */
bool appendLineDurable(const std::string &path, const std::string &line,
                       std::string *error = nullptr);

/**
 * Read the whole of @p path into @p out. Returns false and fills
 * @p error when the path cannot be opened, is not a regular file (a
 * directory, say) or cannot be read to its end.
 */
bool readFileBytes(const std::string &path, std::vector<std::uint8_t> &out,
                   std::string *error = nullptr);

} // namespace pp

#endif // PP_COMMON_ATOMIC_IO_HH
