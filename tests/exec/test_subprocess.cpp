/**
 * @file
 * Subprocess primitive: capture, exit codes, signal death, environment
 * pinning, the wall-clock deadline with kill-on-hang, and pipes that
 * stay out of concurrently started children.
 */

#include <csignal>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "exec/subprocess.hh"

using namespace pp;

TEST(Subprocess, CapturesStdoutAndStderr)
{
    const auto res = exec::Subprocess::run(
        {"/bin/sh", "-c", "echo out; echo err >&2"});
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.exitCode, 0);
    EXPECT_EQ(res.out, "out\n");
    EXPECT_EQ(res.err, "err\n");
}

TEST(Subprocess, ReportsExitCode)
{
    const auto res = exec::Subprocess::run({"/bin/sh", "-c", "exit 7"});
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.exitCode, 7);
    EXPECT_EQ(res.termSignal, 0);
    EXPECT_FALSE(res.timedOut);
}

TEST(Subprocess, ReportsTerminatingSignal)
{
    const auto res =
        exec::Subprocess::run({"/bin/sh", "-c", "kill -9 $$"});
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.termSignal, SIGKILL);
    EXPECT_FALSE(res.timedOut);
}

TEST(Subprocess, ExecFailureIs127)
{
    const auto res =
        exec::Subprocess::run({"/nonexistent/definitely-not-a-binary"});
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.exitCode, 127);
    EXPECT_NE(res.err.find("exec"), std::string::npos);
}

TEST(Subprocess, PinsEnvironment)
{
    exec::Subprocess::Options opts;
    opts.env.emplace_back("PP_FAULT", "crash");
    const auto res = exec::Subprocess::run(
        {"/bin/sh", "-c", "printf %s \"$PP_FAULT\""}, opts);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.out, "crash");
}

TEST(Subprocess, DeadlineKillsHangingChild)
{
    exec::Subprocess::Options opts;
    opts.timeoutMs = 300;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res =
        exec::Subprocess::run({"/bin/sh", "-c", "sleep 60"}, opts);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_TRUE(res.timedOut);
    EXPECT_FALSE(res.ok());
    // Killed near the deadline, not after the child's full sleep.
    EXPECT_LT(elapsed, 10000);
}

TEST(Subprocess, LargeOutputDoesNotDeadlock)
{
    // Far beyond the ~64 KiB pipe buffer: proves the drain loop runs
    // concurrently with the wait.
    const auto res = exec::Subprocess::run(
        {"/bin/sh", "-c",
         "i=0; while [ $i -lt 20000 ]; do echo "
         "0123456789abcdef0123456789abcdef; i=$((i+1)); done"});
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.out.size(), 20000u * 33u);
}

TEST(Subprocess, ChildDoesNotInheritAnotherRunsPipes)
{
    // Shard supervisors run attempts from several threads. A child that
    // kept a concurrent run's pipe ends open past its exec could hold
    // that run's output open until the child exits, so a healthy shard
    // would wait for a hung one.
    const std::vector<std::string> list_fds = {"/bin/sh", "-c",
                                               "ls /proc/self/fd"};
    const auto alone = exec::Subprocess::run(list_fds);
    ASSERT_TRUE(alone.ok());

    std::thread busy(
        [] { exec::Subprocess::run({"/bin/sh", "-c", "sleep 1"}); });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto beside_busy = exec::Subprocess::run(list_fds);
    busy.join();

    ASSERT_TRUE(beside_busy.ok());
    EXPECT_EQ(beside_busy.out, alone.out);
}
