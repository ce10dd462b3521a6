#include "common/atomic_io.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pp
{

namespace
{

void
setError(std::string *error, const std::string &what)
{
    if (error != nullptr)
        *error = what + ": " + std::strerror(errno);
}

/** write(2) until done, retrying on EINTR/short writes. */
bool
writeAll(int fd, const char *data, std::size_t n)
{
    std::size_t done = 0;
    while (done < n) {
        const ssize_t w = ::write(fd, data + done, n - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(w);
    }
    return true;
}

/**
 * Read the regular file open on @p fd whole into @p out. Sized by
 * fstat, not by seeking to the end: a directory opens fine and has no
 * meaningful size.
 */
bool
readRegular(int fd, std::vector<std::uint8_t> &out, std::string *error)
{
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
        setError(error, "cannot stat");
        return false;
    }
    if (!S_ISREG(st.st_mode)) {
        if (error != nullptr)
            *error = "not a regular file";
        return false;
    }
    out.resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < out.size()) {
        const ssize_t r = ::read(fd, out.data() + done, out.size() - done);
        if (r < 0 && errno == EINTR)
            continue;
        if (r < 0) {
            setError(error, "read error");
            return false;
        }
        if (r == 0) {
            if (error != nullptr)
                *error = "read error: file shrank while reading";
            return false;
        }
        done += static_cast<std::size_t>(r);
    }
    return true;
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &contents,
                std::string *error)
{
    // A tmp name unique to this call keeps concurrent writers of the
    // same target — retried shard workers racing a supervisor timeout,
    // or two threads of one process — off each other's tmp files; last
    // rename wins with a complete document.
    static std::atomic<std::uint64_t> calls{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(calls.fetch_add(1));
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setError(error, "cannot open " + tmp);
        return false;
    }
    const bool written = writeAll(fd, contents.data(), contents.size());
    // fsync before rename: the rename must not be durable before the
    // data is, or a power cut could pin an empty file under the final
    // name. (Process kills — the failure mode the supervisor handles —
    // are already safe without it.)
    const bool synced = written && ::fsync(fd) == 0;
    if (::close(fd) != 0 || !synced) {
        setError(error, "cannot write " + tmp);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, "cannot rename " + tmp + " to " + path);
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

bool
appendLineDurable(const std::string &path, const std::string &line,
                  std::string *error)
{
    std::string buf = line;
    if (buf.empty() || buf.back() != '\n')
        buf.push_back('\n');
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        setError(error, "cannot open " + path);
        return false;
    }
    // One write(2): O_APPEND makes the offset+write atomic with respect
    // to other appenders, so lines never interleave.
    const bool written = writeAll(fd, buf.data(), buf.size());
    const bool synced = written && ::fsync(fd) == 0;
    if (::close(fd) != 0 || !synced) {
        setError(error, "cannot append to " + path);
        return false;
    }
    return true;
}

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out,
              std::string *error)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setError(error, "cannot open");
        return false;
    }
    const bool read = readRegular(fd, out, error);
    ::close(fd);
    return read;
}

} // namespace pp
