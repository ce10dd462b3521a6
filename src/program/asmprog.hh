/**
 * @file
 * Label-based assembly program: the mutable pre-assembly representation the
 * code generator emits and the if-converter rewrites.
 */

#ifndef PP_PROGRAM_ASMPROG_HH
#define PP_PROGRAM_ASMPROG_HH

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/instruction.hh"
#include "program/condition.hh"
#include "program/program.hh"

namespace pp
{
namespace program
{

/** Label id within an AsmProgram. */
using LabelId = std::int32_t;

/** Sentinel: instruction has no label target. */
constexpr LabelId noLabel = -1;

/** One item of a pre-assembly program: an instruction + optional target. */
struct AsmInst
{
    isa::Instruction ins;
    /** Branch-target label (branches only). */
    LabelId target = noLabel;
};

/**
 * A single-entry if-convertible region recorded by the code generator.
 *
 * Hammock:
 * @verbatim
 *     cmp.unc pT,pF = cond     <- cmpIdx
 *     (pF) br SKIP             <- brIdx (taken when cond false)
 *     then...                  <- [thenBegin, thenEnd)
 *   SKIP:
 * @endverbatim
 *
 * Diamond additionally has an else block and an internal 'br JOIN':
 * @verbatim
 *     cmp.unc pT,pF = cond
 *     (pF) br ELSE
 *     then...                  <- [thenBegin, thenEnd)
 *     br JOIN                  <- joinBrIdx
 *   ELSE:
 *     else...                  <- [elseBegin, elseEnd)
 *   JOIN:
 * @endverbatim
 */
struct Region
{
    enum class Kind : std::uint8_t { Hammock, Diamond };

    static constexpr std::size_t npos =
        std::numeric_limits<std::size_t>::max();

    Kind kind = Kind::Hammock;
    CondId condId = invalidCond;
    RegIndex pTrue = invalidReg;
    RegIndex pFalse = invalidReg;
    std::size_t cmpIdx = npos;
    std::size_t brIdx = npos;
    std::size_t thenBegin = npos;
    std::size_t thenEnd = npos;
    std::size_t joinBrIdx = npos;
    std::size_t elseBegin = npos;
    std::size_t elseEnd = npos;
};

/**
 * A program under construction: instructions referencing symbolic labels,
 * plus the region table describing its if-convertible regions. Assembling
 * resolves labels to byte addresses and yields an immutable Program.
 */
class AsmProgram
{
  public:
    /** Allocate a fresh label. */
    LabelId newLabel() { return nextLabel++; }

    /** Bind @p label to the position of the next emitted instruction. */
    void placeLabel(LabelId label);

    /** Append an instruction; returns its item index. */
    std::size_t emit(isa::Instruction ins, LabelId target = noLabel);

    /** Append a condition spec; returns its id. */
    CondId addCondition(ConditionSpec spec);

    /** Record an if-convertible region. */
    void addRegion(Region r) { regionTable.push_back(r); }

    /** Resolve labels and produce the executable image. */
    Program assemble(std::uint64_t data_bytes, std::string name) const;

    /** @name Introspection / rewriting access */
    /// @{
    const std::vector<AsmInst> &items() const { return code; }
    std::vector<AsmInst> &items() { return code; }
    const std::vector<Region> &regions() const { return regionTable; }
    const std::vector<ConditionSpec> &conditions() const { return condSpecs; }
    std::size_t positionOf(LabelId label) const;
    /// @}

    /**
     * Build a rewritten copy: @p keep[i] says whether item i survives,
     * @p qp_override[i] (when != invalidReg) re-guards item i and marks it
     * if-converted. Labels are remapped to the next surviving item.
     * Regions are not carried over (the result is post-if-conversion).
     */
    AsmProgram rewrite(const std::vector<bool> &keep,
                       const std::vector<RegIndex> &qp_override) const;

  private:
    std::vector<AsmInst> code;
    std::vector<ConditionSpec> condSpecs;
    std::vector<Region> regionTable;
    std::unordered_map<LabelId, std::size_t> labelPos;
    LabelId nextLabel = 0;
};

} // namespace program
} // namespace pp

#endif // PP_PROGRAM_ASMPROG_HH
