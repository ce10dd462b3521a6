/**
 * @file
 * The result-analytics tools, driven as the real binaries found beside
 * this test binary. sweep_store index idempotency: re-adding identical
 * bytes under the same label must not duplicate the object OR its index
 * line (a retried CI job replays the exact same add). And hostile
 * documents: sweep_diff, sweep_store and sweep_report exit 2 with a
 * message naming the file on a document that is malformed or lacks a
 * field they read, never crash.
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

TEST(SweepStore, AddAfterATornLastLineStartsANewEntry)
{
    // An add killed mid-append leaves a last index line with no newline,
    // the one partial line appendLineDurable can leave. Readers skip it;
    // the next add cuts it, so its entry neither fuses with the fragment
    // nor takes the fragment's seq.
    const std::string dir = uniqueDir("torn");
    const std::string a = dir + "/a.json";
    const std::string b = dir + "/b.json";
    ASSERT_TRUE(writeFileAtomic(
        a, "{\"schema\":\"pp.sweep.v1\",\"runs\":[]}\n"));
    ASSERT_TRUE(writeFileAtomic(
        b, "{\"schema\":\"pp.sweep.v1\",\"runs\":[{}]}\n"));
    const std::string store = dir + "/store";
    ASSERT_TRUE(storeAdd(store, "ci", a).ok());
    {
        std::ofstream os(store + "/index.jsonl", std::ios::app);
        os << "{\"seq\":1,\"label\":\"ci\",\"com";
    }
    const std::vector<std::string> list = {binDir() + "/sweep_store",
                                           "list", "--store", store};
    const auto torn = exec::Subprocess::run(list);
    EXPECT_EQ(torn.exitCode, 0) << torn.err;
    const auto report = exec::Subprocess::run(
        {binDir() + "/sweep_report", "--store", store, "--check"});
    EXPECT_EQ(report.exitCode, 0) << report.err;

    ASSERT_TRUE(storeAdd(store, "ci", b).ok());
    const auto lines = indexLines(store);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1].rfind("{\"seq\":1,\"label\":\"ci\",\"commit\":"
                             "\"deadbeef\"",
                             0),
              0u)
        << lines[1];
    const auto both = exec::Subprocess::run(list);
    EXPECT_EQ(both.exitCode, 0) << both.err;
    EXPECT_NE(both.out.find("\n0 "), std::string::npos) << both.out;
    EXPECT_NE(both.out.find("\n1 "), std::string::npos) << both.out;
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

TEST(SweepStore, ALabelWithControlBytesRoundTripsThroughList)
{
    // A label's control bytes must leave escaped: written raw, a
    // newline tears the index line in two and every later list fails
    // on the torn line.
    const std::string dir = uniqueDir("ctrl");
    const std::string doc = dir + "/doc.json";
    ASSERT_TRUE(writeFileAtomic(
        doc, "{\"schema\":\"pp.sweep.v1\",\"runs\":[]}\n"));
    const std::string store = dir + "/store";
    const std::string label = "a\nb\tc\x01";
    ASSERT_TRUE(storeAdd(store, label, doc).ok());
    EXPECT_EQ(indexLines(store).size(), 1u);

    const auto list = exec::Subprocess::run(
        {binDir() + "/sweep_store", "list", "--store", store});
    EXPECT_EQ(list.exitCode, 0) << list.err;
    EXPECT_NE(list.out.find(label), std::string::npos) << list.out;
    // The label reads back exactly, so a retried add still finds it.
    const auto retry = storeAdd(store, label, doc);
    ASSERT_TRUE(retry.ok());
    EXPECT_NE(retry.out.find("already indexed"), std::string::npos);
    EXPECT_EQ(indexLines(store).size(), 1u);
}

namespace
{

/** @p text written to @p name in a fresh directory; returns its path. */
std::string
writeDoc(const std::string &name, const std::string &text)
{
    const std::string path = uniqueDir("hostile") + "/" + name;
    EXPECT_TRUE(writeFileAtomic(path, text));
    return path;
}

/** Run tool @p args[0] (beside this test) and expect exit 2 naming
 *  @p path on stderr. */
void
expectParseFailure(std::vector<std::string> args, const std::string &path)
{
    args[0] = binDir() + "/" + args[0];
    const auto r = exec::Subprocess::run(args);
    EXPECT_EQ(r.termSignal, 0) << r.err;
    EXPECT_EQ(r.exitCode, 2) << r.err;
    EXPECT_NE(r.err.find(path), std::string::npos) << r.err;
}

} // namespace

TEST(ToolInputs, MalformedDocumentsExitTwoNamingTheFile)
{
    const std::string out = uniqueDir("out") + "/chart.svg";
    const std::string nested =
        writeDoc("nested.json", std::string(200000, '['));
    const std::string sweep =
        writeDoc("sweep.json", "{\"schema\":\"pp.sweep.v1\"}");
    expectParseFailure({"sweep_report", "--sweep", sweep, "--out", out},
                       sweep);
    const std::string replay =
        writeDoc("replay.json", "{\"schema\":\"pp.replay.v1\"}");
    expectParseFailure({"sweep_report", "--replay", replay, "--out", out},
                       replay);
    const std::string no_configs = writeDoc(
        "noconfigs.json", "{\"schema\":\"pp.replay.v1\",\"workloads\":"
                          "[{\"benchmark\":\"gzip\",\"if_convert\":false}]}");
    expectParseFailure(
        {"sweep_report", "--replay", no_configs, "--out", out}, no_configs);
    for (const char *edges : {"[]", "3"}) {
        const std::string metrics = writeDoc(
            "metrics.json", std::string("{\"h\":{\"count\":1,\"sum\":1,"
                                        "\"edges\":") +
                                edges + ",\"buckets\":[0]}}");
        expectParseFailure(
            {"sweep_report", "--metrics", metrics, "--out", out}, metrics);
    }
    expectParseFailure({"sweep_diff", nested, sweep}, nested);
    expectParseFailure({"sweep_store", "add", "--store",
                        uniqueDir("nested-store"), "--label", "ci", nested},
                       nested);
}

TEST(ToolInputs, StoreIndexCannotNameAnObjectOutsideObjects)
{
    // An index entry's object names a file under objects/ by the 16 hex
    // digits sweep_store writes; "../x" would read beside the store.
    const std::string store = uniqueDir("escape");
    std::filesystem::create_directories(store + "/objects");
    ASSERT_TRUE(writeFileAtomic(store + "/x.json",
                                "{\"schema\":\"pp.bench.sampling.v1\"}"));
    const std::string index = store + "/index.jsonl";
    ASSERT_TRUE(writeFileAtomic(
        index, "{\"seq\":0,\"label\":\"ci\",\"commit\":\"c\",\"kind\":"
               "\"pp.bench.sampling.v1\",\"object\":\"../x\",\"file\":"
               "\"x.json\"}\n"));
    expectParseFailure({"sweep_report", "--store", store, "--check"}, index);
}
