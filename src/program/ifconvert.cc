#include "program/ifconvert.hh"

#include "common/sat_counter.hh"
#include "program/emulator.hh"

namespace pp
{
namespace program
{

std::vector<double>
profileConditionHardness(const AsmProgram &prog, const IfConvertOptions &opts)
{
    const Program binary = prog.assemble(1 << 20, "profile");
    Emulator emu(binary, opts.profileSeed);

    // A condition is drawn once per compare executed under a true QP and
    // nowhere else, so its recorded stream is exactly the outcome
    // sequence a record-by-record profile sees; the skip tier produces
    // it without materializing a record per instruction.
    const std::size_t ncond = binary.conditions().size();
    std::vector<ConditionStream> streams(ncond);
    emu.recordConditions(&streams);
    emu.skip(opts.profileSteps);
    emu.recordConditions(nullptr);

    std::vector<double> rates(ncond, 0.0);
    for (std::size_t c = 0; c < ncond; ++c) {
        const ConditionStream &outcomes = streams[c];
        if (outcomes.length < opts.minEvals)
            continue;
        SatCounter bimodal(2, 1);
        std::uint64_t misses = 0;
        for (std::uint64_t k = 0; k < outcomes.length; ++k) {
            const bool taken = outcomes.at(k);
            if (bimodal.taken() != taken)
                ++misses;
            if (taken)
                bimodal.increment();
            else
                bimodal.decrement();
        }
        rates[c] = static_cast<double>(misses) /
            static_cast<double>(outcomes.length);
    }
    return rates;
}

AsmProgram
ifConvert(const AsmProgram &prog, const IfConvertOptions &opts,
          IfConvertStats *stats)
{
    const std::vector<double> hardness =
        profileConditionHardness(prog, opts);

    const std::size_t n = prog.items().size();
    std::vector<bool> keep(n, true);
    std::vector<RegIndex> qp_override(n, invalidReg);

    IfConvertStats local;
    local.regionsTotal = prog.regions().size();

    for (const Region &r : prog.regions()) {
        const int block_len = static_cast<int>(
            (r.thenEnd - r.thenBegin) +
            (r.kind == Region::Kind::Diamond ? (r.elseEnd - r.elseBegin)
                                             : 0));
        RegionDecision dec;
        dec.condId = r.condId;
        dec.hardness = hardness[r.condId];
        dec.blockLen = block_len;
        dec.brIdx = r.brIdx;
        local.decisions.push_back(dec);
        if (hardness[r.condId] < opts.mispredThreshold)
            continue;
        if (block_len > opts.maxBlockLen)
            continue;
        local.decisions.back().converted = true;

        // Remove the region branch; guard the blocks.
        keep[r.brIdx] = false;
        ++local.branchesRemoved;
        for (std::size_t i = r.thenBegin; i < r.thenEnd; ++i) {
            qp_override[i] = r.pTrue;
            ++local.instsPredicated;
        }
        if (r.kind == Region::Kind::Diamond) {
            keep[r.joinBrIdx] = false;
            ++local.branchesRemoved;
            for (std::size_t i = r.elseBegin; i < r.elseEnd; ++i) {
                qp_override[i] = r.pFalse;
                ++local.instsPredicated;
            }
        }
        ++local.regionsConverted;
    }

    if (stats)
        *stats = local;
    return prog.rewrite(keep, qp_override);
}

} // namespace program
} // namespace pp
