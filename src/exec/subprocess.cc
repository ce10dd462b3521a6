#include "exec/subprocess.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"

namespace pp
{
namespace exec
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Drain whatever is readable from @p fd into @p out; false on EOF. */
bool
drain(int fd, std::string &out)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            return false; // EOF
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true; // nothing more right now
        if (errno == EINTR)
            continue;
        return false; // read error: treat as EOF
    }
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

Subprocess::Result
Subprocess::run(const std::vector<std::string> &argv, const Options &opts)
{
    if (argv.empty())
        fatal("Subprocess::run: empty argv");

    // Close-on-exec, so a child that another thread forks during this
    // run never keeps these write ends: a hung worker holding them would
    // keep this run from seeing EOF until its deadline. dup2() clears
    // the flag on the child's own stdout and stderr.
    int out_pipe[2];
    int err_pipe[2];
    if (::pipe2(out_pipe, O_CLOEXEC) != 0 ||
        ::pipe2(err_pipe, O_CLOEXEC) != 0)
        fatal(std::string("Subprocess::run: pipe: ") +
              std::strerror(errno));

    const pid_t pid = ::fork();
    if (pid < 0)
        fatal(std::string("Subprocess::run: fork: ") +
              std::strerror(errno));

    if (pid == 0) {
        // Child: wire the pipes, apply the extra environment, exec.
        // Only async-signal-safe calls plus setenv (single-threaded
        // here) before exec; _exit on any failure so we never run the
        // parent's atexit handlers twice. Own process group so a
        // deadline kill reaps grandchildren too — otherwise a killed
        // worker's own children would hold the pipes open.
        ::setpgid(0, 0);
        ::dup2(out_pipe[1], STDOUT_FILENO);
        ::dup2(err_pipe[1], STDERR_FILENO);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        ::close(err_pipe[0]);
        ::close(err_pipe[1]);
        for (const auto &kv : opts.env)
            ::setenv(kv.first.c_str(), kv.second.c_str(), 1);
        std::vector<char *> cargv;
        cargv.reserve(argv.size() + 1);
        for (const std::string &a : argv)
            cargv.push_back(const_cast<char *>(a.c_str()));
        cargv.push_back(nullptr);
        ::execvp(cargv[0], cargv.data());
        ::dprintf(STDERR_FILENO, "exec %s: %s\n", cargv[0],
                  std::strerror(errno));
        ::_exit(127);
    }

    // Parent. Mirror the child's setpgid so the group exists whichever
    // side runs first (EACCES/ESRCH after the exec are expected).
    ::setpgid(pid, pid);
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);
    setNonBlocking(out_pipe[0]);
    setNonBlocking(err_pipe[0]);

    Result res;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(opts.timeoutMs);
    Clock::time_point killed_at;
    bool out_open = true;
    bool err_open = true;
    while (out_open || err_open) {
        struct pollfd fds[2];
        nfds_t nfds = 0;
        if (out_open)
            fds[nfds++] = {out_pipe[0], POLLIN, 0};
        if (err_open)
            fds[nfds++] = {err_pipe[0], POLLIN, 0};

        int wait_ms = -1;
        if (res.timedOut) {
            // Post-kill: only draining stragglers; poll in short slices
            // so the EOF grace below is checked.
            wait_ms = 100;
        } else if (opts.timeoutMs != 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            wait_ms = left < 0 ? 0 : static_cast<int>(left) + 1;
        }
        const int rv = ::poll(fds, nfds, wait_ms);
        if (rv < 0 && errno != EINTR)
            break;

        // Deadline: kill the child's whole process group (fall back to
        // the child alone), then keep draining until both pipes report
        // EOF so no partial diagnostics are lost.
        if (opts.timeoutMs != 0 && !res.timedOut &&
            Clock::now() >= deadline) {
            res.timedOut = true;
            killed_at = Clock::now();
            if (::kill(-pid, SIGKILL) != 0)
                ::kill(pid, SIGKILL);
        }
        if (out_open)
            out_open = drain(out_pipe[0], res.out);
        if (err_open)
            err_open = drain(err_pipe[0], res.err);
        // An orphan that survived the group kill (e.g. it changed its
        // own group) could hold the pipes open forever; cap the drain.
        if (res.timedOut &&
            Clock::now() - killed_at > std::chrono::seconds(2))
            break;
    }
    ::close(out_pipe[0]);
    ::close(err_pipe[0]);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR)
        ;
    if (WIFSIGNALED(status))
        res.termSignal = WTERMSIG(status);
    else if (WIFEXITED(status))
        res.exitCode = WEXITSTATUS(status);
    return res;
}

} // namespace exec
} // namespace pp
