/**
 * @file
 * Golden-statistics regression test for the cycle-loop data-structure
 * overhaul: a fixed (benchmark, if-conversion, scheme, seed) grid whose
 * full CoreStats were captured on the simulator *before* the O(1)-ROB /
 * event-driven-wakeup refactor. Every counter must stay bit-identical —
 * the hot-path rework is a pure host-side optimization and may never
 * change simulated behavior. If an intentional model change invalidates
 * these numbers, regenerate them with the previous known-good build and
 * say so loudly in the commit message.
 */

#include <gtest/gtest.h>

#include "sampling/accuracy_contract.hh"
#include "sim/simulator.hh"

using namespace pp;

namespace
{

/** Expected CoreStats, in declaration order (see corestats.hh). */
struct GoldenStats
{
    std::uint64_t cycles;
    std::uint64_t committedInsts;
    std::uint64_t committedCondBranches;
    std::uint64_t mispredictedCondBranches;
    std::uint64_t earlyResolvedBranches;
    std::uint64_t overrideRedirects;
    std::uint64_t branchMispredFlushes;
    std::uint64_t shadowMispredicts;
    std::uint64_t earlyResolvedShadowWrong;
    std::uint64_t committedPredicated;
    std::uint64_t nullifiedAtRename;
    std::uint64_t unguardedAtRename;
    std::uint64_t cmovFallbacks;
    std::uint64_t predicateFlushes;
    std::uint64_t committedCompares;
    std::uint64_t comparePd1Mispredicts;
};

// The grid cells (benchmark × if-conversion × scheme) and the
// measurement window live in sampling/accuracy_contract.hh, shared
// with the sampled-simulation accuracy gates so the two contracts can
// never drift apart; this test owns only the bit-exact expectations.
constexpr std::uint64_t kWarmup = sampling::kAccuracyWarmup;
constexpr std::uint64_t kMeasure = sampling::kAccuracyMeasure;

// Captured at commit 695508f (pre-refactor seed + driver), Release
// build, via sim::buildAndRun(profile, ifc, scheme, 10000, 60000).
// Entry i corresponds to sampling::kAccuracyGrid[i].
const GoldenStats kGolden[] = {
    // gzip / conventional
    {22445ull, 60001ull, 4698ull, 485ull, 0ull, 535ull, 484ull, 0ull,
     0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 4698ull, 0ull},
    // gzip+ifc / conventional
    {17263ull, 60000ull, 3502ull, 184ull, 0ull, 155ull, 184ull, 0ull,
     0ull, 5383ull, 0ull, 0ull, 0ull, 0ull, 4535ull, 0ull},
    // crafty+ifc / peppa
    {22628ull, 60003ull, 3798ull, 236ull, 0ull, 79ull, 236ull, 0ull,
     0ull, 3235ull, 0ull, 0ull, 0ull, 0ull, 4500ull, 0ull},
    // swim+ifc / predicate
    {18733ull, 59999ull, 4102ull, 61ull, 1991ull, 62ull, 61ull, 0ull,
     0ull, 630ull, 0ull, 0ull, 0ull, 0ull, 4238ull, 167ull},
    // gzip+ifc / selective
    {16412ull, 60000ull, 3502ull, 111ull, 1378ull, 104ull, 111ull, 0ull,
     0ull, 5383ull, 1805ull, 349ull, 3026ull, 18ull, 4535ull, 443ull},
    // ifcmax+ifc / selective
    {17217ull, 59998ull, 1819ull, 55ull, 1189ull, 81ull, 55ull, 0ull,
     0ull, 11081ull, 4084ull, 549ull, 2929ull, 11ull, 2911ull, 507ull},
    // crafty+ifc / ideal
    {22032ull, 60003ull, 3798ull, 164ull, 1270ull, 114ull, 164ull, 0ull,
     0ull, 3235ull, 0ull, 0ull, 0ull, 0ull, 4500ull, 481ull},
    // swim+ifc / selective_shadow
    {18733ull, 59999ull, 4102ull, 61ull, 1991ull, 62ull, 61ull, 116ull,
     54ull, 630ull, 195ull, 0ull, 350ull, 0ull, 4238ull, 167ull},
};

static_assert(sizeof(kGolden) / sizeof(kGolden[0]) ==
              sizeof(sampling::kAccuracyGrid) /
                  sizeof(sampling::kAccuracyGrid[0]),
              "golden expectations must cover the shared grid exactly");

/** A cell off Table 1: the default machine with @ref configure applied. */
struct EdgeCell
{
    const char *label;
    const char *benchmark;
    bool ifConvert;
    const char *scheme; ///< sampling::accuracySchemeByName
    void (*configure)(core::CoreConfig &cfg);
    GoldenStats expected;
};

// Completion-scheduler edge cases the Table 1 grid never reaches:
// completions due thousands of cycles ahead, zero-latency completions
// (drained the next cycle together with that cycle's own), and fills
// that queue for a single MSHR behind 120-cycle memory. Captured at
// commit a0b3746 (binary-heap completion queue), Release build, via
// sim::run(binary, profile, scheme, cfg, 10000, 60000). Kept apart from
// sampling::kAccuracyGrid, which the sampling contract shares.
const EdgeCell kSchedulerEdges[] = {
    {"mcf/conventional, 3000-cycle memory", "mcf", false, "conventional",
     [](core::CoreConfig &c) { c.mem.memLatency = 3000; },
     {134040ull, 59995ull, 4250ull, 537ull, 0ull, 372ull, 536ull, 0ull,
      0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 4249ull, 0ull}},
    {"gzip+ifc/predicate, zero-latency int/compare/branch/agen/forward",
     "gzip", true, "predicate",
     [](core::CoreConfig &c) {
         c.intAluLat = c.compareLat = c.branchLat = 0;
         c.agenLat = c.forwardLat = 0;
     },
     {16345ull, 60000ull, 3502ull, 113ull, 1261ull, 108ull, 113ull, 0ull,
      0ull, 5383ull, 0ull, 0ull, 0ull, 0ull, 4535ull, 448ull}},
    {"mcf/peppa, one L1D and one L2 MSHR", "mcf", false, "peppa",
     [](core::CoreConfig &c) { c.mem.l1d.mshrs = c.mem.l2.mshrs = 1; },
     {36760ull, 59995ull, 4250ull, 509ull, 0ull, 377ull, 508ull, 0ull,
      0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 4249ull, 0ull}},
};

void
expectGolden(const core::CoreStats &s, const GoldenStats &e)
{
    EXPECT_EQ(s.cycles, e.cycles);
    EXPECT_EQ(s.committedInsts, e.committedInsts);
    EXPECT_EQ(s.committedCondBranches, e.committedCondBranches);
    EXPECT_EQ(s.mispredictedCondBranches, e.mispredictedCondBranches);
    EXPECT_EQ(s.earlyResolvedBranches, e.earlyResolvedBranches);
    EXPECT_EQ(s.overrideRedirects, e.overrideRedirects);
    EXPECT_EQ(s.branchMispredFlushes, e.branchMispredFlushes);
    EXPECT_EQ(s.shadowMispredicts, e.shadowMispredicts);
    EXPECT_EQ(s.earlyResolvedShadowWrong, e.earlyResolvedShadowWrong);
    EXPECT_EQ(s.committedPredicated, e.committedPredicated);
    EXPECT_EQ(s.nullifiedAtRename, e.nullifiedAtRename);
    EXPECT_EQ(s.unguardedAtRename, e.unguardedAtRename);
    EXPECT_EQ(s.cmovFallbacks, e.cmovFallbacks);
    EXPECT_EQ(s.predicateFlushes, e.predicateFlushes);
    EXPECT_EQ(s.committedCompares, e.committedCompares);
    EXPECT_EQ(s.comparePd1Mispredicts, e.comparePd1Mispredicts);
}

} // namespace

TEST(GoldenStats, BitIdenticalToPreRefactorCapture)
{
    for (std::size_t i = 0;
         i < sizeof(kGolden) / sizeof(kGolden[0]); ++i) {
        const sampling::AccuracyCell &c = sampling::kAccuracyGrid[i];
        SCOPED_TRACE(c.label());
        const auto profile = program::profileByName(c.benchmark);
        const sim::RunResult r = sim::buildAndRun(
            profile, c.ifConvert,
            sampling::accuracySchemeByName(c.scheme), kWarmup,
            kMeasure);
        expectGolden(r.stats, kGolden[i]);
    }
}

TEST(GoldenStats, SchedulerEdgeCasesBitIdentical)
{
    for (const EdgeCell &c : kSchedulerEdges) {
        SCOPED_TRACE(c.label);
        const auto profile = program::profileByName(c.benchmark);
        const program::Program binary =
            sim::buildBinary(profile, c.ifConvert);
        core::CoreConfig cfg;
        c.configure(cfg);
        const sim::RunResult r = sim::run(
            binary, profile, sampling::accuracySchemeByName(c.scheme), cfg,
            kWarmup, kMeasure);
        expectGolden(r.stats, c.expected);
    }
}
