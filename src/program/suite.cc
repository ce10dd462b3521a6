#include "program/suite.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace pp
{
namespace program
{

namespace
{

/** Start from the generic profile and tweak. */
BenchmarkProfile
base(const std::string &name, bool fp, std::uint64_t seed)
{
    BenchmarkProfile p;
    p.name = name;
    p.isFp = fp;
    p.seed = seed;
    if (fp) {
        // FP codes: loopier, fewer hard branches, more regular patterns.
        p.fpFrac = 0.45;
        p.wInnerLoop = 0.30;
        p.wCompute = 0.24;
        p.wHammock = 0.20;
        p.wDiamond = 0.10;
        p.wCorrChain = 0.10;
        p.wCall = 0.06;
        p.pEasyBiased = 0.50;
        p.pMidBiased = 0.15;
        p.pPattern = 0.15;
        p.pCorrGuard = 0.12;
        p.loopTripMin = 8;
        p.loopTripMax = 48;
    }
    return p;
}

/** %.17g like the sinks, so a key never depends on stream state. */
std::string
fmt(double v)
{
    if (!std::isfinite(v))
        return "nan";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
profileKeyText(const BenchmarkProfile &p)
{
    std::ostringstream os;
    os << "name=" << p.name << ",fp=" << p.isFp << ",seed=" << p.seed
       << ",nf=" << p.numFunctions << ",rpf=" << p.regionsPerFunction
       << ",bl=" << p.blockLenMin << ":" << p.blockLenMax
       << ",lt=" << p.loopTripMin << ":" << p.loopTripMax
       << ",db=" << p.dataBytes;
    os << ",w=" << fmt(p.wHammock) << "/" << fmt(p.wDiamond) << "/"
       << fmt(p.wCorrChain) << "/" << fmt(p.wInnerLoop) << "/"
       << fmt(p.wCompute) << "/" << fmt(p.wCall);
    os << ",g=" << fmt(p.pEasyBiased) << "/" << fmt(p.pMidBiased) << "/"
       << fmt(p.pPattern) << "/" << fmt(p.pCorrGuard);
    os << ",dd=" << fmt(p.dataDepLo) << ":" << fmt(p.dataDepHi)
       << ",cn=" << fmt(p.corrNoise);
    os << ",cbd=" << p.cmpBrDistMin << ":" << p.cmpBrDistMax
       << ",hf=" << fmt(p.hoistFrac) << ",mf=" << fmt(p.memFrac)
       << ",ff=" << fmt(p.fpFrac);
    os << ",ifc=" << fmt(p.ifcMispredThreshold) << ":"
       << p.ifcMaxBlockLen;
    return os.str();
}

std::vector<BenchmarkProfile>
intSuite()
{
    std::vector<BenchmarkProfile> v;

    {   // gzip: moderately predictable, data-dependent compression tests.
        auto p = base("gzip", false, 0x67a1);
        p.pEasyBiased = 0.42;
        p.pCorrGuard = 0.18;
        p.dataDepLo = 0.35; p.dataDepHi = 0.65;
        p.hoistFrac = 0.30;
        v.push_back(p);
    }
    {   // vpr: placement/routing, many mid-biased geometric tests.
        auto p = base("vpr", false, 0x67a2);
        p.pMidBiased = 0.30;
        p.pEasyBiased = 0.25;
        p.pCorrGuard = 0.20;
        p.wCorrChain = 0.22;
        p.numFunctions = 16;
        p.regionsPerFunction = 20;
        p.hoistFrac = 0.02;
        p.cmpBrDistMax = 2;
        p.loopTripMin = 4; p.loopTripMax = 10;
        v.push_back(p);
    }
    {   // gcc: huge static footprint, rich correlation.
        auto p = base("gcc", false, 0x67a3);
        p.numFunctions = 14;
        p.regionsPerFunction = 16;
        p.pCorrGuard = 0.22;
        p.pEasyBiased = 0.34;
        p.wCall = 0.10;
        v.push_back(p);
    }
    {   // mcf: pointer chasing, hard data-dependent branches, big data.
        auto p = base("mcf", false, 0x67a4);
        p.pEasyBiased = 0.22;
        p.pMidBiased = 0.22;
        p.pPattern = 0.08;
        p.pCorrGuard = 0.12;
        p.dataDepLo = 0.42; p.dataDepHi = 0.58;
        p.memFrac = 0.40;
        p.dataBytes = 1ull << 24;
        v.push_back(p);
    }
    {   // crafty: chess; deeply correlated decision chains.
        auto p = base("crafty", false, 0x67a5);
        p.pCorrGuard = 0.26;
        p.wCorrChain = 0.22;
        p.pEasyBiased = 0.30;
        p.hoistFrac = 0.35;
        v.push_back(p);
    }
    {   // parser: alternating grammar tests, pattern heavy.
        auto p = base("parser", false, 0x67a6);
        p.pPattern = 0.28;
        p.pCorrGuard = 0.18;
        p.pEasyBiased = 0.28;
        v.push_back(p);
    }
    {   // perlbmk: interpreter dispatch; correlated, call heavy.
        auto p = base("perlbmk", false, 0x67a7);
        p.wCall = 0.14;
        p.numFunctions = 12;
        p.pCorrGuard = 0.22;
        v.push_back(p);
    }
    {   // gap: group theory; loops plus mid-biased tests.
        auto p = base("gap", false, 0x67a8);
        p.wInnerLoop = 0.24;
        p.pMidBiased = 0.26;
        v.push_back(p);
    }
    {   // vortex: OO database, very predictable, call heavy.
        auto p = base("vortex", false, 0x67a9);
        p.pEasyBiased = 0.55;
        p.pCorrGuard = 0.16;
        p.wCall = 0.12;
        p.numFunctions = 12;
        v.push_back(p);
    }
    {   // bzip2: like gzip but harder inner decisions.
        auto p = base("bzip2", false, 0x67aa);
        p.pEasyBiased = 0.34;
        p.dataDepLo = 0.38; p.dataDepHi = 0.62;
        p.pCorrGuard = 0.16;
        p.hoistFrac = 0.45;
        v.push_back(p);
    }
    {   // twolf: the paper's exception. Heavy near-random data-dependent
        // branches and a large static compare population: predicate
        // prediction's alias pressure and history corruption outweigh its
        // gains here.
        auto p = base("twolf", false, 0x1111);
        p.numFunctions = 26;
        p.regionsPerFunction = 26;
        p.pEasyBiased = 0.18;
        p.pMidBiased = 0.18;
        p.pPattern = 0.04;
        p.pCorrGuard = 0.0;
        p.wCorrChain = 0.0;
        p.dataDepLo = 0.46; p.dataDepHi = 0.54;
        p.corrNoise = 0.14;
        p.hoistFrac = 0.0;
        p.cmpBrDistMin = 0;
        p.cmpBrDistMax = 1;
        p.wInnerLoop = 0.26;
        p.loopTripMin = 12; p.loopTripMax = 28;
        v.push_back(p);
    }

    return v;
}

std::vector<BenchmarkProfile>
fpSuite()
{
    std::vector<BenchmarkProfile> v;

    {   // wupwise: regular QCD kernels.
        auto p = base("wupwise", true, 0x77b1);
        p.pEasyBiased = 0.60;
        v.push_back(p);
    }
    {   // swim: stencil loops, almost all loop branches.
        auto p = base("swim", true, 0x77b2);
        p.wInnerLoop = 0.42;
        p.loopTripMin = 16; p.loopTripMax = 64;
        p.pEasyBiased = 0.62;
        v.push_back(p);
    }
    {   // mgrid: multigrid; nested loops.
        auto p = base("mgrid", true, 0x77b3);
        p.wInnerLoop = 0.40;
        p.loopTripMin = 4; p.loopTripMax = 10;
        p.hoistFrac = 0.02;
        p.cmpBrDistMax = 2;
        p.wCorrChain = 0.16;
        p.numFunctions = 20;
        p.regionsPerFunction = 22;
        p.hoistFrac = 0.05;
        v.push_back(p);
    }
    {   // applu: PDE solver.
        auto p = base("applu", true, 0x77b4);
        p.wInnerLoop = 0.34;
        p.memFrac = 0.34;
        v.push_back(p);
    }
    {   // mesa: software rendering; some hard clipping tests.
        auto p = base("mesa", true, 0x77b5);
        p.pMidBiased = 0.24;
        p.dataDepLo = 0.40; p.dataDepHi = 0.60;
        p.wCorrChain = 0.14;
        v.push_back(p);
    }
    {   // galgel: fluid dynamics; moderately hard.
        auto p = base("galgel", true, 0x77b6);
        p.pMidBiased = 0.22;
        p.pCorrGuard = 0.16;
        v.push_back(p);
    }
    {   // art: neural-net simulation; notorious for hard branches.
        auto p = base("art", true, 0x77b7);
        p.pEasyBiased = 0.28;
        p.pMidBiased = 0.24;
        p.dataDepLo = 0.42; p.dataDepHi = 0.58;
        p.wCorrChain = 0.16;
        p.memFrac = 0.38;
        v.push_back(p);
    }
    {   // equake: sparse solver; data-dependent structure tests.
        auto p = base("equake", true, 0x77b8);
        p.pMidBiased = 0.22;
        p.memFrac = 0.36;
        p.hoistFrac = 0.35;
        v.push_back(p);
    }
    {   // facerec: image matching; patterned decisions.
        auto p = base("facerec", true, 0x77b9);
        p.pPattern = 0.26;
        v.push_back(p);
    }
    {   // ammp: molecular dynamics.
        auto p = base("ammp", true, 0x77ba);
        p.pMidBiased = 0.20;
        p.memFrac = 0.34;
        v.push_back(p);
    }
    {   // lucas: number theory; extremely regular.
        auto p = base("lucas", true, 0x77bb);
        p.wInnerLoop = 0.44;
        p.pEasyBiased = 0.66;
        p.loopTripMin = 16; p.loopTripMax = 48;
        v.push_back(p);
    }

    return v;
}

std::vector<BenchmarkProfile>
spec2000Suite()
{
    auto v = intSuite();
    auto f = fpSuite();
    v.insert(v.end(), f.begin(), f.end());
    return v;
}

std::vector<BenchmarkProfile>
stressSuite()
{
    std::vector<BenchmarkProfile> v;

    {   // ifcmax: a compiler that if-converts everything it can. Zero
        // misprediction threshold plus a huge block-length cap means the
        // predicated fraction dwarfs any SPEC-like profile, stressing
        // rename-time nullification, CMOV fallback and the predicate
        // flush path.
        auto p = base("ifcmax", false, 0x5717e1);
        p.ifcMispredThreshold = 0.0;
        p.ifcMaxBlockLen = 64;
        p.blockLenMin = 4;
        p.blockLenMax = 14;
        p.wHammock = 0.40;
        p.wDiamond = 0.26;
        p.wInnerLoop = 0.10;
        p.wCompute = 0.14;
        p.pMidBiased = 0.30;
        p.pEasyBiased = 0.22;
        p.dataDepLo = 0.38; p.dataDepHi = 0.62;
        v.push_back(p);
    }
    {   // aliasstorm: predictor alias pressure far beyond twolf. The
        // static compare/branch population overwhelms the PVT and
        // perceptron tables, and near-random conditions keep every entry
        // hot, so destructive aliasing dominates accuracy.
        auto p = base("aliasstorm", false, 0x5717e2);
        p.numFunctions = 48;
        p.regionsPerFunction = 44;
        p.pEasyBiased = 0.12;
        p.pMidBiased = 0.16;
        p.pPattern = 0.02;
        p.pCorrGuard = 0.0;
        p.wCorrChain = 0.0;
        p.wCall = 0.10;
        p.dataDepLo = 0.44; p.dataDepHi = 0.56;
        p.corrNoise = 0.16;
        p.hoistFrac = 0.05;
        p.cmpBrDistMax = 2;
        v.push_back(p);
    }

    return v;
}

std::vector<BenchmarkProfile>
extendedSuite()
{
    auto v = spec2000Suite();
    auto s = stressSuite();
    v.insert(v.end(), s.begin(), s.end());
    return v;
}

BenchmarkProfile
profileByName(const std::string &name)
{
    for (const auto &p : extendedSuite())
        if (p.name == name)
            return p;
    fatal("unknown benchmark profile: " + name);
}

} // namespace program
} // namespace pp
