/**
 * @file
 * Branch prediction unit: the two-level override organization of Table 1
 * (single-cycle gshare first level; 3-cycle second level that is either
 * the conventional perceptron, PEP-PA, or the paper's predicate
 * predictor), plus a checkpointed return-address stack and the optional
 * trace-driven shadow predictor used by the Fig. 6b breakdown.
 */

#ifndef PP_CORE_BPU_HH
#define PP_CORE_BPU_HH

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "core/config.hh"
#include "isa/instruction.hh"
#include "predictor/gshare.hh"
#include "predictor/peppa.hh"
#include "predictor/perceptron.hh"
#include "predictor/predicate_perceptron.hh"

namespace pp
{
namespace core
{

/** Checkpointed return-address stack. */
class Ras
{
  public:
    explicit Ras(unsigned depth = 64) : stack(depth, 0) {}

    /** Snapshot for one branch (undoes at most one push or pop). */
    struct Ckpt
    {
        std::uint16_t top = 0;
        Addr clobberSlot = 0;
    };

    Ckpt
    checkpoint() const
    {
        return {topIdx, stack[(topIdx + 1) % stack.size()]};
    }

    void
    restore(const Ckpt &ck)
    {
        stack[(ck.top + 1) % stack.size()] = ck.clobberSlot;
        topIdx = ck.top;
    }

    void
    push(Addr a)
    {
        topIdx = static_cast<std::uint16_t>((topIdx + 1) % stack.size());
        stack[topIdx] = a;
    }

    Addr top() const { return stack[topIdx]; }

    void
    pop()
    {
        topIdx = static_cast<std::uint16_t>(
            (topIdx + stack.size() - 1) % stack.size());
    }

  private:
    std::vector<Addr> stack;
    std::uint16_t topIdx = 0;
};

/**
 * Container wiring the configured predictors together, and the one
 * commit-order training protocol functional warming and the replay tier
 * (replay/predictor_replay.hh) both apply to them.
 */
class Bpu
{
  public:
    explicit Bpu(const CoreConfig &cfg)
        : perfectHistory(cfg.idealPerfectHistory)
    {
        auto gcfg = cfg.gshare;
        l1 = std::make_unique<predictor::Gshare>(gcfg);

        switch (cfg.scheme) {
          case PredictionScheme::Conventional: {
            auto pcfg = cfg.perceptron;
            pcfg.noAlias = cfg.idealNoAlias;
            pcfg.perfectHistory = cfg.idealPerfectHistory;
            l2 = std::make_unique<predictor::PerceptronPredictor>(pcfg);
            break;
          }
          case PredictionScheme::PepPa:
            l2 = std::make_unique<predictor::PepPa>(cfg.peppa);
            break;
          case PredictionScheme::PredicatePredictor: {
            auto ppcfg = cfg.predicate;
            ppcfg.noAlias = cfg.idealNoAlias;
            ppcfg.perfectHistory = cfg.idealPerfectHistory;
            predicate =
                std::make_unique<predictor::PredicatePerceptron>(ppcfg);
            break;
          }
        }

        if (cfg.shadowConventional) {
            auto scfg = cfg.perceptron;
            shadow = std::make_unique<predictor::PerceptronPredictor>(scfg);
        }
    }

    /** Directions the tables predicted before trainBranch() trained them. */
    struct BranchTraining
    {
        bool l1 = false;     ///< first-level gshare
        bool l2 = false;     ///< second level; l1 when there is none
        bool shadow = false; ///< shadow perceptron, when present
    };

    /**
     * Train on one committed conditional branch as an in-order machine
     * would: after detailed execution every committed branch's history
     * bit holds the actual outcome (override and misprediction repair
     * both converge there), so predict, repair the bit if wrong, then
     * train. @p qp_value is the guarding predicate's value PEP-PA
     * selects with.
     */
    BranchTraining
    trainBranch(const isa::Instruction &ins, Addr pc, bool qp_value,
                bool taken)
    {
        predictor::BranchContext bctx;
        bctx.pc = pc;
        bctx.qpLogical = ins.qp;
        bctx.qpArchValue = qp_value;
        if (perfectHistory)
            bctx.oracleOutcome = taken;
        BranchTraining p;
        predictor::PredState l1st;
        p.l1 = l1->predict(bctx, l1st);
        if (l1st.predTaken != taken)
            l1->correctHistory(l1st, taken);
        l1->resolve(bctx, l1st, taken);
        p.l2 = p.l1;
        if (l2) {
            predictor::PredState l2st;
            p.l2 = l2->predict(bctx, l2st);
            if (l2st.predTaken != taken)
                l2->correctHistory(l2st, taken);
            l2->resolve(bctx, l2st, taken);
        }
        if (shadow) {
            predictor::PredState sst;
            p.shadow = shadow->predict(bctx, sst);
            shadow->resolve(bctx, sst, taken);
            if (p.shadow != taken)
                shadow->correctHistory(sst, taken);
        }
        return p;
    }

    /**
     * Train the predicate predictor (PredicatePredictor scheme only) on
     * one committed compare: predict, §3.3 history repair when the first
     * prediction was wrong, then train. @p v1/@p v2 are the values the
     * destinations hold after the compare; @p pd1_val/@p pd2_val the raw
     * computed conditions (the perfect-history oracle). Returns the
     * prediction made before training.
     */
    predictor::PredPredState
    trainCompare(const isa::Instruction &ins, Addr pc, bool v1, bool v2,
                 bool pd1_val, bool pd2_val)
    {
        predictor::CompareContext cctx;
        cctx.pc = pc;
        cctx.needSecond = ins.pdst2 != isa::regP0 && ins.pdst2 != invalidReg;
        if (perfectHistory) {
            cctx.oracle1 = pd1_val;
            cctx.oracle2 = pd2_val;
        }
        predictor::PredPredState pst;
        predicate->predict(cctx, pst);
        if (pst.valid && pst.pred1 != v1 && !perfectHistory)
            predicate->correctHistoryAtDepth(cctx, pst, v1, 0, 0);
        predicate->resolve(cctx, pst, v1, v2);
        return pst;
    }

    /** First-level gshare (always present). */
    std::unique_ptr<predictor::Gshare> l1;

    /** Second-level branch predictor (Conventional / PepPa schemes). */
    std::unique_ptr<predictor::DirectionPredictor> l2;

    /** The predicate predictor (PredicatePredictor scheme). */
    std::unique_ptr<predictor::PredicatePerceptron> predicate;

    /** Trace-driven conventional shadow (Fig. 6b instrumentation). */
    std::unique_ptr<predictor::PerceptronPredictor> shadow;

    /** Return-address stack. */
    Ras ras;

  private:
    /** Idealized perfect history: training sees the oracle outcomes. */
    bool perfectHistory;
};

} // namespace core
} // namespace pp

#endif // PP_CORE_BPU_HH
