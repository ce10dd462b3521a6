/**
 * @file
 * Dynamic (in-flight) instruction state.
 */

#ifndef PP_CORE_DYNINST_HH
#define PP_CORE_DYNINST_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "program/emulator.hh"
#include "predictor/types.hh"

namespace pp
{
namespace core
{

/** Sentinel oracle index for wrong-path instructions. */
constexpr std::uint64_t wrongPathOracle = ~0ull;

/** One rename-map change (for squash undo and commit-time freeing). */
struct RenameUndo
{
    enum class Class : std::uint8_t { None, Int, Fp, Pred };
    Class regClass = Class::None;
    RegIndex logical = invalidReg;
    PhysRegIndex oldPhys = invalidPhysReg;
    PhysRegIndex newPhys = invalidPhysReg;
};

/** Pipeline status of a dynamic instruction. */
enum class InstStage : std::uint8_t
{
    Fetched,
    Renamed,   ///< in an issue queue (or LSQ), waiting to issue
    Issued,    ///< executing
    Done,      ///< result ready; waiting to commit
    Committed,
};

/** Which issue queue an instruction occupies after rename. */
enum class IqClass : std::uint8_t
{
    None, ///< nop or rename-nullified: never enters an issue queue
    Int,
    Fp,
    Br,
};

/** A dynamic instruction flowing through the pipeline. */
struct DynInst
{
    InstSeqNum seq = invalidSeqNum;
    Addr pc = 0;
    const isa::Instruction *ins = nullptr;

    /** Oracle record (valid only when correctPath). */
    program::ExecRecord rec;
    bool correctPath = false;
    std::uint64_t oracleIdx = wrongPathOracle;

    InstStage stage = InstStage::Fetched;

    /** FU budget pool index (doIssue); 0xff = no pool, never issues. */
    static constexpr std::uint8_t noFu = 0xff;

    /** @name Scheduling (valid once renamed into the ROB ring) */
    /// @{
    std::uint32_t robSlot = 0;          ///< ring slot owned until removal
    IqClass iqClass = IqClass::None;    ///< issue queue occupied
    std::uint8_t waitCount = 0;         ///< unready sources still pending
    std::uint8_t fuIndex = noFu;        ///< FU pool drawn from at issue
    std::uint64_t sqPos = 0;            ///< absolute store-queue position
    /// @}

    /** @name Timing */
    /// @{
    Cycle fetchCycle = 0;
    Cycle renameReadyCycle = 0; ///< fetchCycle + frontEndDepth
    Cycle doneCycle = 0;        ///< result available
    /// @}

    /** @name Renaming */
    /// @{
    std::array<RenameUndo, 2> renames; ///< dest mappings created
    PhysRegIndex qpPhys = invalidPhysReg;
    PhysRegIndex srcPhys1 = invalidPhysReg;
    PhysRegIndex srcPhys2 = invalidPhysReg;
    PhysRegIndex oldDstPhys = invalidPhysReg; ///< CMOV extra source
    PhysRegIndex dstPhys = invalidPhysReg;
    PhysRegIndex pdstPhys1 = invalidPhysReg;
    PhysRegIndex pdstPhys2 = invalidPhysReg;
    /// @}

    /** @name Prediction state */
    /// @{
    predictor::PredState l1State;    ///< gshare (branches)
    predictor::PredState l2State;    ///< conventional / PEP-PA (branches)
    predictor::PredPredState ppState;///< predicate predictor (compares)
    bool fetchPredTaken = false;     ///< first-level direction at fetch
    bool finalPredTaken = false;     ///< after second-level override
    bool earlyResolved = false;      ///< read computed predicate at rename
    Addr predTarget = 0;             ///< target fetch followed if taken
    std::uint16_t rasCkptTop = 0;    ///< RAS recovery (branches)
    Addr rasCkptAddr = 0;
    bool actualPd1 = false;          ///< computed predicate values
    bool actualPd2 = false;          ///< (captured at compare execution)
    /// @}

    /** @name Predication execution */
    /// @{
    bool nullified = false;     ///< cancelled at rename (predicted false)
    bool unguarded = false;     ///< predicted true: qp dependence dropped
    bool cmovMode = false;      ///< fallback: qp + old dest as sources
    PhysRegIndex robPtrEntry = invalidPhysReg; ///< PPRF entry we registered
    /// @}

    /** Effective address for timing (pseudo-address on wrong path). */
    Addr memAddr = 0;

    bool isBranch() const { return ins->isBranch(); }
    bool isCompare() const { return ins->isCompare(); }
    bool isLoad() const { return ins->isLoad(); }
    bool isStore() const { return ins->isStore(); }
};

} // namespace core
} // namespace pp

#endif // PP_CORE_DYNINST_HH
