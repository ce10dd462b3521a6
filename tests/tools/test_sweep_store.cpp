/**
 * @file
 * sweep_store index idempotency: re-adding identical bytes under the
 * same label must not duplicate the object OR its index line (a retried
 * CI job replays the exact same add). Drives the real sweep_store
 * binary found beside this test binary.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/atomic_io.hh"
#include "exec/subprocess.hh"

using namespace pp;

namespace
{

/** Directory holding this test binary (sweep_store lives beside it). */
std::string
binDir()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    buf[n] = '\0';
    const std::string self(buf);
    return self.substr(0, self.rfind('/'));
}

std::string
uniqueDir(const std::string &name)
{
    static int counter = 0;
    const std::string d = ::testing::TempDir() + "ppstore-" + name + "-" +
        std::to_string(::getpid()) + "-" + std::to_string(counter++);
    std::filesystem::create_directories(d);
    return d;
}

std::vector<std::string>
indexLines(const std::string &store)
{
    std::ifstream is(store + "/index.jsonl");
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

std::size_t
objectCount(const std::string &store)
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(
             store + "/objects", ec)) {
        (void)e;
        ++n;
    }
    return n;
}

exec::Subprocess::Result
storeAdd(const std::string &store, const std::string &label,
         const std::string &file)
{
    return exec::Subprocess::run({binDir() + "/sweep_store", "add",
                                  "--store", store, "--label", label,
                                  "--commit", "deadbeef", file});
}

} // namespace

TEST(SweepStore, ReAddUnderSameLabelIsIdempotent)
{
    const std::string dir = uniqueDir("idemp");
    const std::string doc = dir + "/doc.json";
    ASSERT_TRUE(writeFileAtomic(
        doc, "{\"schema\":\"pp.sweep.v1\",\"runs\":[]}\n"));

    const std::string store = dir + "/store";
    ASSERT_TRUE(storeAdd(store, "ci", doc).ok());
    ASSERT_EQ(indexLines(store).size(), 1u);
    ASSERT_EQ(objectCount(store), 1u);

    // The retried job: identical bytes, identical label. One object,
    // still exactly one history line.
    const auto retry = storeAdd(store, "ci", doc);
    ASSERT_TRUE(retry.ok());
    EXPECT_NE(retry.out.find("already indexed"), std::string::npos);
    EXPECT_EQ(indexLines(store).size(), 1u);
    EXPECT_EQ(objectCount(store), 1u);
}

TEST(SweepStore, DistinctLabelsAndBytesStillAppend)
{
    const std::string dir = uniqueDir("append");
    const std::string doc = dir + "/doc.json";
    const std::string doc2 = dir + "/doc2.json";
    ASSERT_TRUE(writeFileAtomic(
        doc, "{\"schema\":\"pp.sweep.v1\",\"runs\":[]}\n"));
    ASSERT_TRUE(writeFileAtomic(
        doc2, "{\"schema\":\"pp.sweep.v1\",\"runs\":[{}]}\n"));

    const std::string store = dir + "/store";
    ASSERT_TRUE(storeAdd(store, "ci", doc).ok());
    // Same bytes, different label: the object is shared, the history
    // entry is new.
    ASSERT_TRUE(storeAdd(store, "local", doc).ok());
    EXPECT_EQ(indexLines(store).size(), 2u);
    EXPECT_EQ(objectCount(store), 1u);
    // Different bytes under an existing label: new object, new entry,
    // and the sequence number keeps rising across invocations.
    ASSERT_TRUE(storeAdd(store, "ci", doc2).ok());
    const auto lines = indexLines(store);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(objectCount(store), 2u);
    EXPECT_NE(lines.back().find("\"seq\":2"), std::string::npos);
}

TEST(SweepStore, ListRejectsASeqThatIsNotAnUnsignedInteger)
{
    // A hand-edited or foreign index line must fail as a parse error
    // naming the line, not print a wrapped or undefined integer.
    for (const char *seq : {"-1", "1.5", "1e300"}) {
        SCOPED_TRACE(seq);
        const std::string store = uniqueDir("badseq");
        std::filesystem::create_directories(store + "/objects");
        ASSERT_TRUE(writeFileAtomic(
            store + "/index.jsonl",
            "{\"seq\":0,\"label\":\"ci\",\"commit\":\"deadbeef\","
            "\"kind\":\"pp.sweep.v1\",\"object\":\"a\"}\n"
            "{\"seq\":" + std::string(seq) + ",\"label\":\"ci\","
            "\"commit\":\"deadbeef\",\"kind\":\"pp.sweep.v1\","
            "\"object\":\"b\"}\n"));
        const auto list = exec::Subprocess::run(
            {binDir() + "/sweep_store", "list", "--store", store});
        EXPECT_EQ(list.exitCode, 2) << list.out << list.err;
        EXPECT_NE(list.err.find("bad index line 2"), std::string::npos)
            << list.err;
        EXPECT_NE(list.err.find("'seq'"), std::string::npos) << list.err;
        EXPECT_EQ(list.out.find("18446744073709551615"), std::string::npos)
            << list.out;
    }
}
