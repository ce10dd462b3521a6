/**
 * @file
 * Contract of the checkpoint-parallel sampled tier:
 *  - the t-distribution CI correction matches the published table;
 *  - warm events pack into one 32-bit word and back, and programs too
 *    large for the payload are refused before anything is recorded;
 *  - pp.ckpt.v2 images round-trip byte-exactly, their bytes match a
 *    golden hash, every corruption class (truncation, foreign magic,
 *    future version, bit rot, I/O) surfaces as the right typed
 *    ArtifactError before any decode, and a thousand mutations that
 *    reach the decoder fail typed or re-encode to exactly their bytes;
 *  - in memory, windows share equal data pages and store no zero page,
 *    whether the set was built, decoded or loaded;
 *  - a window run on a thread's recycled data segment equals the same
 *    window run on a fresh one, whatever ran on that thread before;
 *  - the engine's parallel window execution is bit-identical to the
 *    standalone serial sampled path at any thread count, with or
 *    without the on-disk checkpoint cache;
 *  - the sweep summary's checkpoint counters stay a pure function of
 *    the spec list;
 *  - the engine streams its sets: documents stay byte-identical at any
 *    thread count and with a partly warm result cache, a corrupt later
 *    set fails typed, a set of another format version is rebuilt, a set
 *    that does not fit its binary or its workload (window state the
 *    restore path would panic on included) fails as a Mismatch, at
 *    most one set per worker is resident, and the progress line still
 *    reaches 100%.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "../common/artifact_mutation.hh"
#include "common/fnv.hh"
#include "driver/result_sink.hh"
#include "driver/run_matrix.hh"
#include "driver/sweep_engine.hh"
#include "obs/metrics.hh"
#include "program/warm_stream.hh"
#include "sampling/accuracy_contract.hh"
#include "sampling/sampled_simulator.hh"
#include "sampling/window_checkpoint.hh"
#include "sim/simulator.hh"

using namespace pp;
using sampling::WindowCheckpointSet;

namespace
{

/** A sparse (gapped) policy that routes through the checkpoint tier. */
sampling::SamplingPolicy
gappedPolicy()
{
    sampling::SamplingPolicy p;
    p.periodInsts = 4000;
    p.warmupInsts = 1000;
    p.measureInsts = 1000;
    return p;
}

WindowCheckpointSet
buildGzipSet()
{
    const auto profile = program::profileByName("gzip");
    const program::Program binary = sim::buildBinary(profile, true);
    return sampling::buildWindowCheckpoints(binary, profile, 5000, 20000,
                                            gappedPolicy());
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(b.data()),
             static_cast<std::streamsize>(b.size()));
}

ArtifactError::Kind
loadKind(const std::string &path)
{
    try {
        WindowCheckpointSet::loadOrThrow(path);
    } catch (const ArtifactError &e) {
        EXPECT_EQ(e.path(), path);
        return e.kind();
    }
    ADD_FAILURE() << path << ": expected ArtifactError";
    return ArtifactError::Kind::Io;
}

/** The error deserialize() throws on @p image. */
ArtifactError
decodeError(const std::vector<std::uint8_t> &image)
{
    try {
        WindowCheckpointSet::deserialize(image);
    } catch (const ArtifactError &e) {
        return e;
    }
    ADD_FAILURE() << "expected ArtifactError";
    return ArtifactError(ArtifactError::Kind::Io, "", "", 0, "");
}

/**
 * Byte offset, in @p set's serialized image of @p image_bytes, of the
 * first Branch event of its last window (whose events end the image, 4
 * bytes each), or @p image_bytes when it has none; its index in that
 * window's stream goes to @p index.
 */
std::size_t
lastWindowBranchAt(const WindowCheckpointSet &set, std::size_t image_bytes,
                   std::size_t &index)
{
    const std::vector<std::uint32_t> &events = set.windows.back().warmEvents;
    index = 0;
    while (index < events.size() &&
           program::unpackWarmEvent(events[index]).kind !=
               program::WarmEventKind::Branch)
        ++index;
    return image_bytes - 4 * (events.size() - index);
}

/**
 * The in-memory sharing contract of @p set: no stored page is all
 * zeros (a zero page is null), and equal pages are one object however
 * many windows hold them. Returns the distinct page objects stored.
 */
std::size_t
expectPagesShared(const WindowCheckpointSet &set)
{
    using program::PagedImage;
    std::map<PagedImage::Page, const PagedImage::Page *> by_content;
    std::set<const PagedImage::Page *> objects;
    std::size_t held = 0;
    for (std::size_t i = 0; i < set.windows.size(); ++i) {
        const auto &pages = set.windows[i].arch.dataMem.pages();
        for (std::size_t p = 0; p < pages.size(); ++p) {
            const PagedImage::Page *page = pages[p].get();
            if (page == nullptr)
                continue;
            ++held;
            EXPECT_NE(*page, PagedImage::Page{})
                << "window " << i << " stores zero page " << p;
            objects.insert(page);
            const auto it = by_content.emplace(*page, page).first;
            EXPECT_EQ(it->second, page)
                << "window " << i << " page " << p
                << " copies an equal page";
        }
    }
    EXPECT_EQ(objects.size(), by_content.size());
    // Consecutive windows do share: fewer objects than page slots held.
    EXPECT_LT(objects.size(), held);
    return objects.size();
}

} // namespace

TEST(TCritical, MatchesTableWithStepDown)
{
    EXPECT_DOUBLE_EQ(sampling::tCritical95(0), 0.0);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(1), 12.706);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(2), 4.303);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(7), 2.365);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(8), 2.306);
    // Between tabulated rows the largest df <= actual applies
    // (conservative: a larger t, a wider interval).
    EXPECT_DOUBLE_EQ(sampling::tCritical95(11), 2.228);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(14), 2.179);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(29), 2.086);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(30), 2.042);
    // Beyond the table the normal approximation is fine.
    EXPECT_DOUBLE_EQ(sampling::tCritical95(31), 1.96);
    EXPECT_DOUBLE_EQ(sampling::tCritical95(1000), 1.96);
}

TEST(TCritical, CiHalfWidthAppliesSmallSampleCorrection)
{
    // n=3: mean 2, sample sd 1 -> half-width = t(2) * 1/sqrt(3).
    const std::vector<double> xs = {1.0, 2.0, 3.0};
    EXPECT_NEAR(sampling::ciHalfWidth(xs), 4.303 / std::sqrt(3.0),
                1e-12);
    // Degenerate inputs carry no interval.
    EXPECT_DOUBLE_EQ(sampling::ciHalfWidth({}), 0.0);
    EXPECT_DOUBLE_EQ(sampling::ciHalfWidth({1.0}), 0.0);
}

TEST(SamplingPolicy, WindowCountValidationGuardsSparseRegions)
{
    const sampling::SamplingPolicy smarts =
        sampling::SamplingPolicy::smarts();
    EXPECT_EQ(smarts.windowsInRegion(3000000), 12u);
    EXPECT_EQ(sampling::SamplingPolicy{}.windowsInRegion(3000000), 0u);
    smarts.validateForRegion(2000000);             // 8 windows: ok
    sampling::SamplingPolicy{}.validateForRegion(100);  // disabled: ok
    EXPECT_DEATH(smarts.validateForRegion(250000), "need >= 8");
}

TEST(WarmEvent, EveryKindAndLegalFlagSetRoundTrips)
{
    using program::WarmEventKind;
    for (const WarmEventKind kind :
         {WarmEventKind::InstLine, WarmEventKind::Mem,
          WarmEventKind::Branch, WarmEventKind::Compare}) {
        const std::uint32_t mask =
            program::kWarmFlagMask[static_cast<unsigned>(kind)];
        for (std::uint32_t flags = 0; flags < 16; ++flags) {
            if ((flags & ~mask) != 0)
                continue;
            for (const std::uint64_t payload :
                 {std::uint64_t{0}, program::kWarmIndexLimit - 1}) {
                SCOPED_TRACE(testing::Message()
                             << "kind " << static_cast<int>(kind)
                             << " flags " << flags << " payload "
                             << payload);
                const Addr addr = payload * program::warmUnitBytes(kind);
                const std::uint32_t word =
                    program::packWarmEvent(kind, flags, addr);
                const program::WarmEvent ev = program::unpackWarmEvent(word);
                EXPECT_EQ(ev.kind, kind);
                EXPECT_EQ(ev.flags, flags);
                EXPECT_EQ(ev.payload, payload);
                EXPECT_EQ(ev.addr(), addr);
                EXPECT_TRUE(program::warmEventCanonical(word));
            }
        }
    }
    // Mem and Branch count instructions and data words differently.
    EXPECT_EQ(program::unpackWarmEvent(program::packWarmEvent(
                  program::WarmEventKind::Mem, 1, 8 * 1000))
                  .payload,
              1000u);
    EXPECT_EQ(program::unpackWarmEvent(program::packWarmEvent(
                  program::WarmEventKind::Branch, 1, isa::instBytes * 1000))
                  .payload,
              1000u);
    // A flag the kind leaves unused is not canonical.
    EXPECT_FALSE(program::warmEventCanonical(
        program::packWarmEvent(program::WarmEventKind::InstLine, 1, 0)));
    EXPECT_FALSE(program::warmEventCanonical(
        program::packWarmEvent(program::WarmEventKind::Branch, 2, 0)));
}

TEST(WarmEventDeath, ProgramsPastThePayloadAreRefused)
{
    // Sizes alone: no 2^26-word segment is allocated.
    const std::uint64_t limit = program::kWarmIndexLimit;
    program::checkWarmStreamFits(limit, limit);
    EXPECT_DEATH(program::checkWarmStreamFits(limit + 1, 1024),
                 "limit of 2\\^26 instructions");
    EXPECT_DEATH(program::checkWarmStreamFits(1024, limit + 1),
                 "2\\^26 data words");
}

TEST(WindowCheckpoint, BuilderLaysOutGappedWindows)
{
    const WindowCheckpointSet set = buildGzipSet();
    ASSERT_EQ(set.windows.size(), 5u);  // ceil(20000 / 4000)
    EXPECT_EQ(set.regionWarmup, 5000u);
    EXPECT_EQ(set.regionMeasure, 20000u);
    std::uint64_t prev_start = 0;
    for (std::size_t i = 0; i < set.windows.size(); ++i) {
        const auto &w = set.windows[i];
        // Window i measures [5000 + 4000 i, +1000) after 1000 warmup.
        EXPECT_EQ(w.measureStart, 5000u + 4000 * i);
        EXPECT_EQ(w.measureEnd, w.measureStart + 1000u);
        EXPECT_EQ(w.warmStart, w.measureStart - 1000u);
        EXPECT_GE(w.warmStart, prev_start);
        prev_start = w.warmStart;
        // The checkpoint sits exactly at the warm start and carries a
        // well-formed warming stream for the horizon before it.
        EXPECT_EQ(w.arch.numInsts, w.warmStart);
        EXPECT_FALSE(w.warmEvents.empty());
        for (const std::uint32_t e : w.warmEvents)
            ASSERT_TRUE(program::warmEventCanonical(e)) << e;
    }
    // The builder pass walks the region exactly once, to the last
    // window's warm start.
    EXPECT_EQ(set.builderInsts, set.windows.back().warmStart);
}

TEST(WindowCheckpoint, SerializeRoundTripsByteExactly)
{
    const WindowCheckpointSet set = buildGzipSet();
    const std::vector<std::uint8_t> image = set.serialize();
    const WindowCheckpointSet back =
        WindowCheckpointSet::deserialize(image);

    EXPECT_EQ(back.regionWarmup, set.regionWarmup);
    EXPECT_EQ(back.regionMeasure, set.regionMeasure);
    EXPECT_EQ(back.policy.periodInsts, set.policy.periodInsts);
    EXPECT_EQ(back.policy.warmupInsts, set.policy.warmupInsts);
    EXPECT_EQ(back.policy.measureInsts, set.policy.measureInsts);
    EXPECT_EQ(back.policy.warmingHorizon, set.policy.warmingHorizon);
    EXPECT_EQ(back.builderInsts, set.builderInsts);
    ASSERT_EQ(back.windows.size(), set.windows.size());
    for (std::size_t i = 0; i < set.windows.size(); ++i) {
        EXPECT_EQ(back.windows[i].warmStart, set.windows[i].warmStart);
        EXPECT_EQ(back.windows[i].warmEvents, set.windows[i].warmEvents);
    }
    // Decode-then-encode reproduces the image bit-for-bit — the
    // property the content-keyed disk cache depends on.
    EXPECT_EQ(back.serialize(), image);
}

TEST(WindowCheckpoint, SerializedBytesMatchTheGoldenHash)
{
    // Pins the pp.ckpt.v2 bytes themselves, not just their round trip:
    // the in-memory page layout must not leak into the disk format.
    const std::vector<std::uint8_t> image = buildGzipSet().serialize();
    EXPECT_EQ(image.size(), 53504u);
    EXPECT_EQ(hashHex(fnv1a(image.data(), image.size())),
              "daf55d127c7f3b28");
}

TEST(WindowCheckpoint, WindowsShareDataPagesWhenBuiltDecodedAndLoaded)
{
    const WindowCheckpointSet built = buildGzipSet();
    const std::size_t distinct = expectPagesShared(built);

    // The warm paths keep the saving: a decoded image and a loaded file
    // hold exactly as many page objects as the build did.
    const WindowCheckpointSet decoded =
        WindowCheckpointSet::deserialize(built.serialize());
    EXPECT_EQ(expectPagesShared(decoded), distinct);

    const std::string path = tempPath("shared.ppckpt");
    built.store(path);
    EXPECT_EQ(expectPagesShared(WindowCheckpointSet::loadOrThrow(path)),
              distinct);
}

TEST(WindowCheckpoint, RecycledSegmentsMatchFreshWindowsInAnyOrder)
{
    // This pins the segment's hand-off between windows, sizes, programs
    // and threads. Generated code never loads an address or a condition,
    // so data values do not reach the statistics compared here; the
    // EmulatorSegment tests pin the restored words themselves.
    //
    // mcf's 16 MB segment against gzip's and twolf's 4 MB ones. The
    // region starts 1.5M instructions in, where a gzip window holds
    // ~350 non-zero pages and a twolf one ~14.
    const std::vector<std::string> names = {"mcf", "gzip", "twolf"};
    std::vector<program::Program> binaries;
    std::vector<WindowCheckpointSet> sets;
    std::vector<std::uint64_t> seeds;
    binaries.reserve(names.size());
    for (const std::string &name : names) {
        const auto profile = program::profileByName(name);
        binaries.push_back(sim::buildBinary(profile, true));
        sets.push_back(sampling::buildWindowCheckpoints(
            binaries.back(), profile, 1500000, 12000, gappedPolicy()));
        seeds.push_back(sim::coreSeed(profile));
    }
    ASSERT_EQ(binaries[0].dataSize(), 4 * binaries[1].dataSize());
    ASSERT_EQ(binaries[1].dataSize(), binaries[2].dataSize());
    std::vector<core::CoreConfig> cfgs;
    for (const char *scheme : {"peppa", "conventional", "predicate"}) {
        cfgs.push_back(sim::resolveConfig(
            sampling::accuracySchemeByName(scheme), core::CoreConfig{}));
    }

    struct Cell
    {
        std::size_t prog, scheme, window;
    };
    // Windows backwards. First the program changes every cell (mcf ->
    // gzip resizes the segment, gzip -> twolf keeps its size but no
    // page), then each program's windows run back to back, so a segment
    // also restores the neighbouring window of the set it just ran.
    std::vector<Cell> cells;
    const std::size_t windows = sets[0].windows.size();
    for (std::size_t w = windows; w-- > 0;)
        for (std::size_t s = 0; s < cfgs.size(); ++s)
            for (std::size_t p = 0; p < names.size(); ++p)
                cells.push_back({p, s, w});
    for (std::size_t p = 0; p < names.size(); ++p)
        for (std::size_t w = sets[p].windows.size(); w-- > 0;)
            for (std::size_t s = 0; s < cfgs.size(); ++s)
                cells.push_back({p, s, w});

    auto run = [&](const Cell &c) {
        return sampling::runWindow(sets[c.prog].windows[c.window],
                                   binaries[c.prog], cfgs[c.scheme],
                                   seeds[c.prog]);
    };
    auto runAll = [&](std::vector<sampling::WindowRunResult> &out) {
        for (const Cell &c : cells)
            out.push_back(run(c));
    };

    // Reference: each cell on a new thread, whose segment is fresh.
    std::vector<sampling::WindowRunResult> fresh(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        std::thread([&, i] { fresh[i] = run(cells[i]); }).join();

    // The whole sequence on one thread, then on two at once: the two
    // threads' segments hold references to the same pages.
    std::vector<std::vector<sampling::WindowRunResult>> recycled(3);
    std::thread(runAll, std::ref(recycled[0])).join();
    std::thread a(runAll, std::ref(recycled[1]));
    std::thread b(runAll, std::ref(recycled[2]));
    a.join();
    b.join();

    for (const auto &runs : recycled) {
        ASSERT_EQ(runs.size(), cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            SCOPED_TRACE(names[c.prog] + " scheme " +
                         std::to_string(c.scheme) + " window " +
                         std::to_string(c.window) + " cell " +
                         std::to_string(i));
            for (const auto &f : core::kCoreStatsFields)
                ASSERT_EQ(runs[i].delta.*f.member, fresh[i].delta.*f.member)
                    << f.name;
            ASSERT_EQ(runs[i].coreCommitted, fresh[i].coreCommitted);
            ASSERT_EQ(runs[i].overshot, fresh[i].overshot);
        }
    }
}

TEST(WindowCheckpoint, DeserializeRejectsCorruptImagesTyped)
{
    const WindowCheckpointSet set = buildGzipSet();
    std::vector<std::uint8_t> image = set.serialize();

    // The header's hash covers the lost half.
    std::vector<std::uint8_t> truncated(image.begin(),
                                        image.begin() + image.size() / 2);
    ArtifactError e = decodeError(truncated);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::HashMismatch) << e.what();
    EXPECT_EQ(e.offset(), 16u);

    std::vector<std::uint8_t> flipped = image;
    flipped[0] ^= 0xff;  // magic
    e = decodeError(flipped);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::BadMagic) << e.what();
    EXPECT_STREQ(e.what(), "checkpoint file: not a checkpoint file (bad "
                           "magic) (byte offset 0)");

    // Re-hashed, so the extra byte gets past the header to the decoder.
    std::vector<std::uint8_t> trailing = image;
    trailing.push_back(0);
    test::rehashFrame(trailing);
    e = decodeError(trailing);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
    EXPECT_EQ(e.offset(), image.size());

    // Window 0's image length, one word too long: its length prefix
    // follows the nine set words and the window's three offsets.
    constexpr std::size_t kArchLenAt = 24 + 8 * (9 + 3);
    std::vector<std::uint8_t> long_arch = image;
    long_arch[kArchLenAt] += 8;
    test::rehashFrame(long_arch);
    e = decodeError(long_arch);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
    EXPECT_EQ(e.offset(), kArchLenAt);

    // Fields the encoder never writes: the functional-warming word (the
    // sixth set word) other than 1, and a flag bit a Branch event
    // leaves unused.
    constexpr std::size_t kWarmingAt = 24 + 8 * 5;
    for (const std::uint8_t word : {0, 2}) {
        std::vector<std::uint8_t> warming = image;
        warming[kWarmingAt] = word;
        test::rehashFrame(warming);
        e = decodeError(warming);
        EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
        EXPECT_EQ(e.offset(), kWarmingAt);
    }

    std::size_t branch = 0;
    const std::size_t event_at =
        lastWindowBranchAt(set, image.size(), branch);
    ASSERT_LT(event_at, image.size());
    std::vector<std::uint8_t> flag = image;
    flag[event_at] |= 2u << program::kWarmFlagShift;
    test::rehashFrame(flag);
    e = decodeError(flag);
    EXPECT_EQ(e.kind(), ArtifactError::Kind::Malformed) << e.what();
    EXPECT_EQ(e.offset(), event_at);
}

TEST(WindowCheckpoint, MutatedImagesFailTypedOrReencodeToAFixedPoint)
{
    // A small set: a 16 KiB data segment and four short windows, so a
    // thousand decodes stay cheap.
    program::BenchmarkProfile profile = program::profileByName("gzip");
    profile.dataBytes = 1 << 14;
    const program::Program binary = sim::buildBinary(profile, true);
    sampling::SamplingPolicy policy;
    policy.periodInsts = 2000;
    policy.warmupInsts = 500;
    policy.measureInsts = 500;
    policy.warmingHorizon = 300;
    const std::vector<std::uint8_t> image =
        sampling::buildWindowCheckpoints(binary, profile, 2000, 8000,
                                         policy)
            .serialize();
    const test::MutationTally tally = test::mutateArtifact(
        image, 1200, 0x70636b7074ull,
        [](const std::vector<std::uint8_t> &b) {
            return WindowCheckpointSet::deserialize(b);
        },
        [](const WindowCheckpointSet &set) { return set.serialize(); });
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_GT(tally.accepted, 0u);
    // The decoder is canonical: whatever it accepts is what the encoder
    // writes for that set.
    EXPECT_EQ(tally.reencoded, 0u);
}

TEST(WindowCheckpoint, LoadOrThrowClassifiesEveryCorruptionKind)
{
    const WindowCheckpointSet set = buildGzipSet();
    const std::string path = tempPath("ok.ppckpt");
    set.store(path);

    // A clean store loads back with identical content.
    const WindowCheckpointSet loaded =
        WindowCheckpointSet::loadOrThrow(path);
    EXPECT_EQ(loaded.serialize(), set.serialize());

    EXPECT_EQ(loadKind(tempPath("missing.ppckpt")),
              ArtifactError::Kind::Io);
    // A directory opens like a file but has no size to read.
    const std::string dir = tempPath("dir.ppckpt");
    std::filesystem::create_directories(dir);
    EXPECT_EQ(loadKind(dir), ArtifactError::Kind::Io);

    const std::vector<std::uint8_t> image = set.serialize();

    std::vector<std::uint8_t> tiny(image.begin(), image.begin() + 16);
    writeBytes(tempPath("tiny.ppckpt"), tiny);
    EXPECT_EQ(loadKind(tempPath("tiny.ppckpt")),
              ArtifactError::Kind::Truncated);

    std::vector<std::uint8_t> magic = image;
    magic[0] ^= 0x01;
    writeBytes(tempPath("magic.ppckpt"), magic);
    EXPECT_EQ(loadKind(tempPath("magic.ppckpt")),
              ArtifactError::Kind::BadMagic);

    std::vector<std::uint8_t> version = image;
    version[8] += 1;
    writeBytes(tempPath("version.ppckpt"), version);
    EXPECT_EQ(loadKind(tempPath("version.ppckpt")),
              ArtifactError::Kind::BadVersion);

    // Payload bit rot is caught by the hash BEFORE structural decode,
    // including truncation past the header.
    std::vector<std::uint8_t> rot = image;
    rot[rot.size() / 2] ^= 0x40;
    writeBytes(tempPath("rot.ppckpt"), rot);
    EXPECT_EQ(loadKind(tempPath("rot.ppckpt")),
              ArtifactError::Kind::HashMismatch);

    std::vector<std::uint8_t> cut(image.begin(), image.end() - 9);
    writeBytes(tempPath("cut.ppckpt"), cut);
    EXPECT_EQ(loadKind(tempPath("cut.ppckpt")),
              ArtifactError::Kind::HashMismatch);
}

TEST(WindowCheckpoint, CheckpointTierKeepsTheSerialEstimatorContract)
{
    // The checkpoint tier is deterministic and keeps the estimator
    // shape the serial sampled contract promises (extrapolated
    // counters, pooled rates, finite CI). It deliberately does NOT
    // reproduce the persistent-core sampledRunDetailed() bit-for-bit —
    // per-window independence is the price of parallelism — but the
    // two estimators must land on the same region magnitudes.
    const auto profile = program::profileByName("gzip");
    const program::Program binary = sim::buildBinary(profile, true);
    const sim::SchemeConfig scheme =
        sampling::accuracySchemeByName("conventional");

    const sampling::SampledRun direct =
        sampling::sampledRunCheckpointed(binary, profile, scheme,
                                         core::CoreConfig{}, 5000, 20000,
                                         gappedPolicy());
    const sampling::SampledRun again =
        sampling::sampledRunCheckpointed(binary, profile, scheme,
                                         core::CoreConfig{}, 5000, 20000,
                                         gappedPolicy());
    const sampling::SampledRun legacy = sampling::sampledRunDetailed(
        binary, profile, scheme, core::CoreConfig{}, 5000, 20000,
        gappedPolicy());

    EXPECT_EQ(direct.windows, 5u);
    EXPECT_TRUE(direct.result.sampled);
    EXPECT_GT(direct.result.ipcErrorBound, 0.0);
    EXPECT_NEAR(static_cast<double>(direct.result.stats.committedInsts),
                20000.0, 1.0);
    for (const auto &f : core::kCoreStatsFields)
        EXPECT_EQ(direct.result.stats.*f.member,
                  again.result.stats.*f.member)
            << f.name;
    EXPECT_EQ(direct.result.ipc, again.result.ipc);
    EXPECT_EQ(direct.result.ipcErrorBound, again.result.ipcErrorBound);

    // Same windows, same region estimate scale as the legacy path;
    // the IPC estimates agree to sampling tolerance.
    EXPECT_EQ(direct.windows, legacy.windows);
    EXPECT_NEAR(static_cast<double>(legacy.result.stats.committedInsts),
                static_cast<double>(direct.result.stats.committedInsts),
                64.0);
    EXPECT_NEAR(direct.result.ipc, legacy.result.ipc,
                0.1 * legacy.result.ipc);
}

TEST(WindowCheckpoint, ParallelWindowsBitIdenticalAcrossThreadCounts)
{
    // The tentpole contract: over a golden-grid-style matrix the
    // engine's checkpoint-parallel execution produces byte-identical
    // documents at threads 1, 2 and 8, each matching the standalone
    // serial checkpoint tier per cell.
    driver::RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .addBenchmark(program::profileByName("swim"))
        .ifConvert(true)
        .addScheme("conventional",
                   sampling::accuracySchemeByName("conventional"))
        .addScheme("selective",
                   sampling::accuracySchemeByName("selective"))
        .addSampling("gap", gappedPolicy())
        .window(5000, 20000);
    const auto specs = m.specs();

    std::vector<std::string> docs;
    std::vector<std::vector<sim::RunResult>> all;
    for (unsigned threads : {1u, 2u, 8u}) {
        driver::SweepOptions opts;
        opts.threads = threads;
        driver::SweepEngine engine(opts);
        const auto results = engine.run(specs);
        docs.push_back(driver::scrubHostMs(
            driver::JsonSink{engine.counters()}.toString(specs, results)));
        all.push_back(results);
    }
    EXPECT_EQ(docs[0], docs[1]);
    EXPECT_EQ(docs[0], docs[2]);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].label());
        const program::Program binary =
            sim::buildBinary(specs[i].profile, specs[i].ifConvert);
        const sampling::SampledRun serial =
            sampling::sampledRunCheckpointed(
                binary, specs[i].profile, specs[i].scheme,
                specs[i].config, specs[i].warmupInsts,
                specs[i].measureInsts, specs[i].sampling);
        for (const auto &f : core::kCoreStatsFields)
            EXPECT_EQ(all[2][i].stats.*f.member,
                      serial.result.stats.*f.member)
                << f.name;
        EXPECT_EQ(all[2][i].ipc, serial.result.ipc);
        EXPECT_EQ(all[2][i].ipcErrorBound, serial.result.ipcErrorBound);
    }
}

TEST(WindowCheckpoint, EngineCountersAndDiskCacheAreDeterministic)
{
    // 1 workload x {2 schemes} x gapped policy: one checkpoint set
    // built, one cache hit — and a full (unsampled) axis contributes
    // to neither counter.
    driver::RunMatrix m;
    m.addBenchmark(program::profileByName("gzip"))
        .ifConvert(true)
        .addScheme("conventional",
                   sampling::accuracySchemeByName("conventional"))
        .addScheme("selective",
                   sampling::accuracySchemeByName("selective"))
        .addSampling("", sampling::SamplingPolicy{})
        .addSampling("gap", gappedPolicy())
        .window(5000, 20000);
    const auto specs = m.specs();
    ASSERT_EQ(specs.size(), 4u);

    driver::SweepOptions plain;
    plain.threads = 2;
    driver::SweepEngine mem_engine(plain);
    const auto mem_results = mem_engine.run(specs);
    EXPECT_EQ(mem_engine.counters().checkpointsBuilt, 1u);
    EXPECT_EQ(mem_engine.counters().checkpointCacheHits, 1u);
    const std::string mem_doc = driver::scrubHostMs(
        driver::JsonSink{mem_engine.counters()}.toString(specs,
                                                         mem_results));
    EXPECT_NE(mem_doc.find("\"checkpoints_built\":1"), std::string::npos);
    EXPECT_NE(mem_doc.find("\"checkpoint_cache_hits\":1"),
              std::string::npos);

    // Cold disk run (builds + stores) and warm run (loads) both
    // reproduce the in-memory document byte-for-byte — counters
    // deliberately ignore disk hits so the summary is history-free.
    driver::SweepOptions disk = plain;
    disk.checkpointDir = testing::TempDir() + "ckpt_cache";
    // TempDir() persists across runs and this test deliberately leaves
    // a corrupted artifact behind — start from an empty cache.
    std::filesystem::remove_all(disk.checkpointDir);
    for (int pass = 0; pass < 2; ++pass) {
        driver::SweepEngine engine(disk);
        const auto results = engine.run(specs);
        EXPECT_EQ(engine.counters().checkpointsBuilt, 1u);
        EXPECT_EQ(engine.counters().checkpointCacheHits, 1u);
        EXPECT_EQ(driver::scrubHostMs(driver::JsonSink{engine.counters()}
                                          .toString(specs, results)),
                  mem_doc);
    }

    // A corrupted cached artifact fails typed, not silently.
    namespace fs = std::filesystem;
    bool corrupted = false;
    for (const auto &e : fs::directory_iterator(disk.checkpointDir)) {
        std::fstream f(e.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(24);
        const char x = 0x7f;
        f.write(&x, 1);
        corrupted = true;
    }
    ASSERT_TRUE(corrupted);
    driver::SweepEngine bad(disk);
    EXPECT_THROW(bad.run(specs), ArtifactError);
}

namespace
{

/**
 * One checkpoint set per named benchmark, each shared by two scheme
 * cells (conventional, selective) in spec order. Not if-converted, so
 * building the binaries costs no profiling pass.
 */
std::vector<driver::RunSpec>
setsOf(const std::vector<std::string> &names)
{
    driver::RunMatrix m;
    for (const std::string &name : names)
        m.addBenchmark(program::profileByName(name));
    m.ifConvert(false)
        .addScheme("conventional",
                   sampling::accuracySchemeByName("conventional"))
        .addScheme("selective",
                   sampling::accuracySchemeByName("selective"))
        .addSampling("gap", gappedPolicy())
        .window(5000, 20000);
    return m.specs();
}

std::string
sweepDoc(const driver::SweepOptions &opts,
         const std::vector<driver::RunSpec> &specs,
         driver::ResultCacheUse *use = nullptr)
{
    driver::SweepEngine engine(opts);
    const auto results = engine.run(specs);
    if (use != nullptr)
        *use = engine.resultCacheUse();
    return driver::scrubHostMs(
        driver::JsonSink{engine.counters()}.toString(specs, results));
}

} // namespace

TEST(StreamedSets, ColdAndPartlyWarmSweepsMatchAColdSerialRun)
{
    // Six sets stream through the pool: each is built when a worker
    // runs out of window jobs and freed after its last window. Neither
    // the thread count nor a result cache that serves some cells (all
    // of gzip's, half of swim's, so one set is skipped and one is built
    // for a single cell) may change a byte.
    const auto specs =
        setsOf({"gzip", "swim", "crafty", "mcf", "twolf", "art"});
    ASSERT_EQ(driver::sweepCountersFor(specs, false).checkpointsBuilt, 6u);
    driver::SweepOptions serial;
    serial.threads = 1;
    const std::string cold = sweepDoc(serial, specs);

    const std::vector<driver::RunSpec> primer{specs[0], specs[1],
                                              specs[2]};
    const obs::Counter &sets_made =
        obs::metrics().counter("sweep.checkpoint_sets");
    for (unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(threads);
        driver::SweepOptions opts;
        opts.threads = threads;
        EXPECT_EQ(sweepDoc(opts, specs), cold);

        opts.resultCacheDir = tempPath("streamed_rcache_" +
                                       std::to_string(threads));
        std::filesystem::remove_all(opts.resultCacheDir);
        sweepDoc(opts, primer);
        driver::ResultCacheUse use;
        const std::uint64_t sets_before = sets_made.value();
        EXPECT_EQ(sweepDoc(opts, specs, &use), cold);
        EXPECT_EQ(use.hits, primer.size());
        EXPECT_EQ(use.simulated, specs.size() - primer.size());
        EXPECT_EQ(sets_made.value() - sets_before, 5u); // not gzip's
    }
}

TEST(StreamedSets, ACorruptLaterSetFailsTypedWithoutAHang)
{
    // The corrupt artifact belongs to the second set, so at one thread
    // the first set's windows have already run when the load fails, and
    // at four the other workers are mid-build or mid-window: each must
    // stop and let run() throw the typed error.
    const auto specs = setsOf({"gzip", "swim", "crafty", "mcf"});
    driver::SweepOptions opts;
    opts.checkpointDir = tempPath("streamed_corrupt_ckpt");
    std::filesystem::remove_all(opts.checkpointDir);
    driver::SweepEngine(opts).run({specs[2], specs[3]});
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(opts.checkpointDir))
        files.push_back(e.path());
    ASSERT_EQ(files.size(), 1u);
    {
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(24);
        const char x = 0x7f;
        f.write(&x, 1);
    }
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        opts.threads = threads;
        driver::SweepEngine engine(opts);
        EXPECT_THROW(engine.run(specs), ArtifactError);
    }
    // With the corrupt set the only work, the other three workers wait
    // for its windows; the failure must wake them.
    driver::SweepEngine engine(opts);
    EXPECT_THROW(engine.run({specs[2], specs[3]}), ArtifactError);
}

TEST(StreamedSets, ResidentSetsAreBoundedByTheWorkers)
{
    // Every set is resident from the start of its build to the merge
    // after its last window; a worker builds only when no window job
    // is queued, so at most one set per worker is held at once (the
    // bound checked here leaves slack). A sweep that built every set
    // before the first window would read 8.
    const auto specs = setsOf(
        {"gzip", "swim", "crafty", "mcf", "twolf", "art", "vpr", "gcc"});
    ASSERT_EQ(driver::sweepCountersFor(specs, false).checkpointsBuilt, 8u);
    obs::Gauge &peak =
        obs::metrics().gauge("sweep.checkpoint_sets_resident_peak");
    driver::SweepOptions opts;
    opts.threads = 2;
    opts.progress = true;
    testing::internal::CaptureStderr();
    driver::SweepEngine(opts).run(specs);
    const std::string progress = testing::internal::GetCapturedStderr();
    EXPECT_GE(peak.value(), 1.0);
    EXPECT_LE(peak.value(), 4.0);
    // The job total counts every window before its set exists.
    EXPECT_NE(progress.find("sweep: 80/80 jobs (100%)"), std::string::npos)
        << progress;

    opts.threads = 1;
    driver::SweepEngine(opts).run(specs);
    EXPECT_EQ(peak.value(), 1.0);
}

namespace
{

/** The one .ppckpt file in @p dir. */
std::string
onlySetIn(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path().string());
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? std::string() : files[0];
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

} // namespace

TEST(StreamedSets, AStaleVersionSetIsRebuilt)
{
    // A set an older build stored under the same key: the sweep warns,
    // builds the set and replaces the file, at one thread and at four.
    const auto specs = setsOf({"gzip"});
    driver::SweepOptions serial;
    serial.threads = 1;
    const std::string cold = sweepDoc(serial, specs);

    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        driver::SweepOptions opts;
        opts.threads = threads;
        opts.checkpointDir =
            tempPath("stale_ckpt_" + std::to_string(threads));
        std::filesystem::remove_all(opts.checkpointDir);
        sweepDoc(opts, specs);
        const std::string path = onlySetIn(opts.checkpointDir);
        const std::vector<std::uint8_t> fresh = readBytes(path);
        std::vector<std::uint8_t> stale = fresh;
        stale[8] = 1; // the version word
        writeBytes(path, stale);
        EXPECT_EQ(loadKind(path), ArtifactError::Kind::BadVersion);

        testing::internal::CaptureStderr();
        const std::string doc = sweepDoc(opts, specs);
        const std::string log = testing::internal::GetCapturedStderr();
        EXPECT_EQ(doc, cold);
        EXPECT_NE(log.find(path + ": unsupported version 1"),
                  std::string::npos)
            << log;
        EXPECT_EQ(readBytes(path), fresh);
    }
}

TEST(StreamedSets, ASetThatDoesNotFitItsBinaryFailsAsMismatch)
{
    // Hash-sound sets a worker must not run: one Branch event names the
    // instruction one past the image, or the windows hold another
    // program's data segment (mcf's is four times gzip's).
    const auto specs = setsOf({"gzip"});
    driver::SweepOptions opts;
    opts.threads = 2;
    opts.checkpointDir = tempPath("mismatch_ckpt");
    std::filesystem::remove_all(opts.checkpointDir);
    sweepDoc(opts, specs);
    const std::string path = onlySetIn(opts.checkpointDir);
    const std::vector<std::uint8_t> good = readBytes(path);
    const std::size_t image_insts =
        sim::buildBinary(specs[0].profile, specs[0].ifConvert).size();

    auto mismatchWhat = [&] {
        try {
            driver::SweepEngine(opts).run(specs);
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ArtifactError::Kind::Mismatch) << e.what();
            EXPECT_EQ(e.path(), path);
            return std::string(e.what());
        }
        ADD_FAILURE() << "expected ArtifactError";
        return std::string();
    };

    // Rewrite one Branch payload in place.
    const WindowCheckpointSet set = WindowCheckpointSet::loadOrThrow(path);
    std::size_t e = 0;
    const std::size_t at = lastWindowBranchAt(set, good.size(), e);
    ASSERT_LT(at, good.size());
    const program::WarmEvent ev =
        program::unpackWarmEvent(set.windows.back().warmEvents[e]);
    const std::uint32_t word = program::packWarmEvent(
        ev.kind, ev.flags, image_insts * isa::instBytes);
    std::vector<std::uint8_t> bad = good;
    for (std::size_t b = 0; b < 4; ++b)
        bad[at + b] = static_cast<std::uint8_t>(word >> (8 * b));
    test::rehashFrame(bad);
    writeBytes(path, bad);
    const std::string what = mismatchWhat();
    EXPECT_NE(what.find("window " +
                        std::to_string(set.windows.size() - 1) +
                        ": warm event " + std::to_string(e) +
                        " names instruction " +
                        std::to_string(image_insts)),
              std::string::npos)
        << what;

    const auto mcf = program::profileByName("mcf");
    sampling::buildWindowCheckpoints(sim::buildBinary(mcf, false), mcf,
                                     5000, 20000, gappedPolicy())
        .store(path);
    EXPECT_NE(mismatchWhat().find("window 0: data segment of"),
              std::string::npos);

    // The good set still loads and runs.
    writeBytes(path, good);
    EXPECT_NO_THROW(driver::SweepEngine(opts).run(specs));
}

TEST(StreamedSets, HostileWindowStateFailsAsMismatchNotAbort)
{
    // Hash-sound sets whose window 0 would reach a panic of
    // Emulator::restore or ConditionSource::restore, or return to an
    // address outside the image: each field is rewritten in the decoded
    // set, which is then stored again (its frame hash recomputed), so
    // only validate() stands between the file and the window run.
    const auto specs = setsOf({"gzip"});
    driver::SweepOptions opts;
    opts.threads = 2;
    opts.checkpointDir = tempPath("hostile_ckpt");
    std::filesystem::remove_all(opts.checkpointDir);
    sweepDoc(opts, specs);
    const std::string path = onlySetIn(opts.checkpointDir);
    const std::vector<std::uint8_t> good = readBytes(path);
    const WindowCheckpointSet set = WindowCheckpointSet::loadOrThrow(path);
    const program::Program binary =
        sim::buildBinary(specs[0].profile, specs[0].ifConvert);
    ASSERT_FALSE(set.windows[0].arch.conds.ids.empty());

    using Arch = program::Emulator::Checkpoint;
    const std::vector<
        std::pair<std::string, std::function<void(Arch &)>>>
        cases = {
            {"PC " + std::to_string((binary.size() + 1) * isa::instBytes) +
                 " outside the " + std::to_string(binary.size()) +
                 "-instruction code image",
             [&](Arch &a) { a.pc = (binary.size() + 1) * isa::instBytes; }},
            {"return address 1099511627776 outside the",
             [](Arch &a) { a.callStack.push_back(std::uint64_t{1} << 40); }},
            {"register files of " + std::to_string(isa::numIntRegs + 1) +
                 "/",
             [](Arch &a) { a.intRegs.push_back(0); }},
            {std::to_string(binary.conditions().size() + 1) +
                 " conditions, the binary has " +
                 std::to_string(binary.conditions().size()),
             [](Arch &a) { ++a.conds.numConds; }},
            {"condition state of a replayed trace",
             [](Arch &a) { a.conds.replay = true; }},
            {"condition " + std::to_string(set.windows[0].arch.conds.ids[0]) +
                 " cursor ",
             [&](Arch &a) {
                 // One past what the condition's generator can hold.
                 using Kind = program::ConditionSpec::Kind;
                 const program::ConditionSpec &s =
                     binary.conditions()[a.conds.ids[0]];
                 const bool cursored =
                     s.kind == Kind::Loop || s.kind == Kind::Pattern;
                 a.conds.pos[0] = cursored ? s.period : 1;
             }},
        };
    for (const auto &[detail, mutate] : cases) {
        WindowCheckpointSet bad = set;
        mutate(bad.windows[0].arch);
        bad.store(path);
        try {
            driver::SweepEngine(opts).run(specs);
            ADD_FAILURE() << "accepted: " << detail;
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ArtifactError::Kind::Mismatch) << e.what();
            EXPECT_NE(std::string(e.what()).find("window 0: " + detail),
                      std::string::npos)
                << e.what();
        }
    }

    writeBytes(path, good);
    EXPECT_NO_THROW(driver::SweepEngine(opts).run(specs));
}

TEST(StreamedSets, ASetOfAnotherLayoutFailsAsMismatchNotAbort)
{
    // Hash-sound sets of another region or policy, or with a window
    // moved off the builder's layout. Window 0 measuring from before
    // its own warm start asked the window core for a wrapped
    // instruction count, and the core panicked "simulation wedged".
    // Each payload word is rewritten in place and the frame rehashed,
    // so only validate() stands between the file and the window run.
    const auto specs = setsOf({"gzip"});
    driver::SweepOptions opts;
    opts.threads = 2;
    opts.checkpointDir = tempPath("layout_ckpt");
    std::filesystem::remove_all(opts.checkpointDir);
    sweepDoc(opts, specs);
    const std::string path = onlySetIn(opts.checkpointDir);
    const std::vector<std::uint8_t> good = readBytes(path);
    const WindowCheckpointSet set = WindowCheckpointSet::loadOrThrow(path);
    const sampling::WindowCheckpoint &w0 = set.windows[0];
    const auto n = [](std::uint64_t v) { return std::to_string(v); };
    const std::string under = " under " + set.policy.label() + "h";
    const std::string sweeps = ", the sweep's is 5000:20000" + under +
                               n(set.policy.warmingHorizon);

    // pp.ckpt.v2 payload words: 0 is the region's warmup, 6 the
    // warming horizon and 10 window 0's measureStart.
    const std::vector<std::tuple<std::size_t, std::uint64_t, std::string>>
        cases = {
            {10, w0.warmStart - 1,
             "window 0: bounds " + n(w0.warmStart) + "/" +
                 n(w0.warmStart - 1) + "/" + n(w0.measureEnd) +
                 " (warm/measure/end), the layout's are " +
                 n(w0.warmStart) + "/" + n(w0.measureStart) + "/" +
                 n(w0.measureEnd)},
            {6, set.policy.warmingHorizon + 1,
             "region 5000:20000" + under +
                 n(set.policy.warmingHorizon + 1) + sweeps},
            {0, 5001,
             "region 5001:20000" + under + n(set.policy.warmingHorizon) +
                 sweeps},
        };
    for (const auto &[word, value, detail] : cases) {
        std::vector<std::uint8_t> bad = good;
        for (std::size_t b = 0; b < 8; ++b)
            bad[kFrameBytes + 8 * word + b] =
                static_cast<std::uint8_t>(value >> (8 * b));
        test::rehashFrame(bad);
        writeBytes(path, bad);
        try {
            driver::SweepEngine(opts).run(specs);
            ADD_FAILURE() << "accepted: " << detail;
        } catch (const ArtifactError &e) {
            EXPECT_EQ(e.kind(), ArtifactError::Kind::Mismatch) << e.what();
            EXPECT_NE(std::string(e.what()).find(detail), std::string::npos)
                << e.what();
        }
    }

    writeBytes(path, good);
    EXPECT_NO_THROW(driver::SweepEngine(opts).run(specs));
}
