#include "core/core.hh"

#include <algorithm>

#include <cstdlib>
#include <cstdio>

#include "common/bitutils.hh"
#include "obs/trace_event.hh"
#include "program/warm_stream.hh"

namespace pp
{
namespace core
{

using isa::Opcode;
using isa::OpClass;
using predictor::BranchContext;
using predictor::CompareContext;

OoOCore::OoOCore(const program::Program &prog, const CoreConfig &config,
                 std::uint64_t seed,
                 const program::DecodedProgram *decoded,
                 const program::TraceFile *trace)
    : OoOCore(prog, config, seed, decoded, trace,
              program::Emulator::Segment())
{
}

OoOCore::OoOCore(const program::Program &prog, const CoreConfig &config,
                 std::uint64_t seed,
                 const program::DecodedProgram *decoded,
                 const program::TraceFile *trace,
                 program::Emulator::Segment segment)
    : program(prog), cfg(config), mem(config.mem),
      emu(prog, decoded, seed, trace, std::move(segment)), bpu(config),
      intMap(isa::numIntRegs, config.intPhysRegs),
      fpMap(isa::numFpRegs, config.fpPhysRegs),
      pprf(isa::numPredRegs, config.predPhysRegs), fetchPc(prog.entry())
{
    traceOn = std::getenv("REPRO_TRACE") != nullptr;
    panicIfNot(cfg.predication != PredicationModel::SelectivePrediction ||
               cfg.scheme == PredictionScheme::PredicatePredictor,
               "selective predication requires the predicate predictor");
    panicIfNot(isPowerOfTwo(cfg.mem.l1i.blockBytes),
               "I-cache line size must be a power of two");
    iLineShift = floorLog2(cfg.mem.l1i.blockBytes);

    rob.init(cfg.robEntries + cfg.fetchBufferEntries);
    intIqReady.reserve(cfg.intIqEntries);
    fpIqReady.reserve(cfg.fpIqEntries);
    brIqReady.reserve(cfg.brIqEntries);
    intWaiters.resize(cfg.intPhysRegs);
    fpWaiters.resize(cfg.fpPhysRegs);
    predWaiters.resize(cfg.predPhysRegs);
    completionEvents.reserve(cfg.robEntries);
    dueScratch.reserve(cfg.robEntries);
}

OoOCore::OoOCore(const program::Program &prog, const CoreConfig &config,
                 std::uint64_t seed,
                 const program::Emulator::Checkpoint &resume,
                 const program::DecodedProgram *decoded,
                 const program::TraceFile *trace,
                 program::Emulator::Segment segment)
    : OoOCore(prog, config, seed, decoded, trace, std::move(segment))
{
    emu.restore(resume);
    fetchPc = emu.pc();

    // Architectural predicate state: rename reads the committed PPRF
    // values (an entry restored as false would silently nullify every
    // instruction its true predicate guards) and PEP-PA correlates on
    // the logical file. p0 is hardwired and skipped, so a checkpoint
    // taken before the first instruction still matches the plain
    // constructor bit-for-bit.
    for (RegIndex l = 1; l < isa::numPredRegs; ++l) {
        const bool val = emu.predReg(l);
        archPred[l] = val;
        PprfEntry &e = pprf.entry(pprf.lookup(l));
        e.value = val;
        e.speculative = false;
    }

    // Return-address stack from the checkpointed call stack, exactly as
    // the calls would have pushed it (deep stacks wrap, keeping the top
    // entries — the ones returns will consume).
    for (const Addr ret : resume.callStack)
        bpu.ras.push(ret);
}

std::vector<DynInst *> &
OoOCore::readyList(IqClass c)
{
    switch (c) {
      case IqClass::Fp: return fpIqReady;
      case IqClass::Br: return brIqReady;
      default: return intIqReady;
    }
}

unsigned &
OoOCore::iqCount(IqClass c)
{
    switch (c) {
      case IqClass::Fp: return fpIqCount;
      case IqClass::Br: return brIqCount;
      default: return intIqCount;
    }
}

void
OoOCore::pushReadyAtRename(DynInst *d)
{
    readyList(d->iqClass).push_back(d);
}

void
OoOCore::pushReadyAtWakeup(DynInst *d)
{
    std::vector<DynInst *> &ready = readyList(d->iqClass);
    const auto pos = std::lower_bound(
        ready.begin(), ready.end(), d->seq,
        [](const DynInst *e, InstSeqNum s) { return e->seq < s; });
    ready.insert(pos, d);
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
OoOCore::doFetch()
{
    if (fetchFrozen || fetchHalted || now < fetchResumeCycle)
        return;

    unsigned fetched = 0;
    while (fetched < cfg.fetchWidth &&
           rob.feSize() < cfg.fetchBufferEntries) {
        // Instruction cache: charge one access per line touched.
        const Addr line = fetchPc >> iLineShift;
        if (line != lastFetchLine) {
            const Cycle done = mem.instAccess(fetchPc, now);
            lastFetchLine = line;
            if (done > now + cfg.mem.l1i.hitLatency) {
                fetchResumeCycle = done;
                return;
            }
        }

        // Correct-path check against the oracle stream. The record
        // reference is valid only until the next ensureOracle()/
        // produce() — ExecRing growth reallocates — so it is consumed
        // (copied into the DynInst) within this loop iteration, before
        // the next oracleAt().
        bool correct = false;
        std::uint64_t oracle_idx = wrongPathOracle;
        const program::ExecRecord *oracle_rec = nullptr;
        if (fetchOnOracle) {
            const program::ExecRecord &rec = oracleAt(oracleCursor);
            if (rec.pc == fetchPc) {
                correct = true;
                oracle_idx = oracleCursor;
                oracle_rec = &rec;
            } else {
                fetchOnOracle = false;
                if (traceOn) {
                    logRawf("[%llu] diverge: fetchPc=0x%llx "
                            "oracle[%llu].pc=0x%llx\n",
                                 (unsigned long long)now,
                                 (unsigned long long)fetchPc,
                                 (unsigned long long)oracleCursor,
                                 (unsigned long long)rec.pc);
                }
            }
        }

        const isa::Instruction *ins;
        if (correct) {
            ins = oracle_rec->ins;
        } else {
            ins = program.at(fetchPc);
            if (ins == nullptr) {
                // Wrong path ran off the code image: fetch idles until
                // the inevitable flush redirects it.
                fetchHalted = true;
                return;
            }
        }

        // Built in place in its final ring slot: DynInst is large enough
        // that a copy per fetched instruction is measurable in sweeps.
        DynInst &d = rob.emplaceBack();
        d.seq = ++seqCounter;
        d.pc = fetchPc;
        d.ins = ins;
        d.correctPath = correct;
        d.oracleIdx = oracle_idx;
        if (correct)
            d.rec = *oracle_rec;
        d.stage = InstStage::Fetched;
        d.fetchCycle = now;
        d.renameReadyCycle = now + cfg.frontEndDepth;

        if (correct)
            ++oracleCursor;

        // Predicate predictions start at compare fetch (Figure 2).
        if (ins->isCompare() &&
            cfg.scheme == PredictionScheme::PredicatePredictor) {
            CompareContext cctx;
            cctx.pc = d.pc;
            cctx.needSecond =
                ins->pdst2 != isa::regP0 && ins->pdst2 != invalidReg;
            if (cfg.idealPerfectHistory && correct) {
                cctx.oracle1 = d.rec.pd1Val;
                cctx.oracle2 = d.rec.pd2Val;
            }
            bpu.predicate->predict(cctx, d.ppState);
        }

        bool ends_group = false;
        if (ins->isBranch()) {
            const auto ck = bpu.ras.checkpoint();
            d.rasCkptTop = ck.top;
            d.rasCkptAddr = ck.clobberSlot;

            bool taken = true;
            if (ins->isConditionalBranch()) {
                BranchContext bctx;
                bctx.pc = d.pc;
                bctx.qpLogical = ins->qp;
                bctx.qpArchValue = archPred[ins->qp];
                if (cfg.idealPerfectHistory && correct)
                    bctx.oracleOutcome = d.rec.branchTaken;
                taken = bpu.l1->predict(bctx, d.l1State);
                // The 3-cycle second level also reads/shifts its history
                // in fetch order; its answer overrides at rename.
                if (bpu.l2)
                    bpu.l2->predict(bctx, d.l2State);
            }
            d.fetchPredTaken = taken;
            d.finalPredTaken = taken;

            Addr target = ins->target;
            if (ins->op == Opcode::BrRet) {
                target = bpu.ras.top();
                if (taken)
                    bpu.ras.pop();
            } else if (ins->op == Opcode::BrCall && taken) {
                bpu.ras.push(d.pc + isa::instBytes);
            }
            d.predTarget = target;

            if (taken) {
                fetchPc = target;
                ends_group = true; // taken branch ends the fetch group
            } else {
                fetchPc += isa::instBytes;
            }
        } else {
            fetchPc += isa::instBytes;
        }

        ++fetched;
        if (ends_group)
            break;
    }
}

// ---------------------------------------------------------------------
// Rename
// ---------------------------------------------------------------------

void
OoOCore::renameBranch(DynInst &d)
{
    if (!d.ins->isConditionalBranch())
        return;

    bool final_dir = d.fetchPredTaken;
    if (cfg.scheme == PredictionScheme::PredicatePredictor) {
        const PprfEntry &e = pprf.entry(d.qpPhys);
        if (!e.speculative) {
            // Early-resolved branch (§3.1): the compare already executed,
            // so the "prediction" is the computed value.
            d.earlyResolved = true;
            final_dir = e.value;
        } else {
            final_dir = e.value; // the stored prediction
        }
    } else {
        final_dir = d.l2State.predTaken;
    }
    d.finalPredTaken = final_dir;

    if (final_dir != d.fetchPredTaken) {
        // Second-level override: squash the younger front end and
        // redirect fetch (the penalty is the natural refill latency).
        ++stats_.overrideRedirects;
        if (traceOn) {
            logRawf("[%llu] override seq=%llu idx=%llu pc=0x%llx "
                         "cp=%d final=%d\n",
                         (unsigned long long)now,
                         (unsigned long long)d.seq,
                         (unsigned long long)d.oracleIdx,
                         (unsigned long long)d.pc, d.correctPath,
                         (int)d.finalPredTaken);
        }
        while (rob.feSize() > 0) {
            undoInst(rob.back());
            rob.popBack();
        }
        bpu.l1->reforecast(d.l1State, final_dir);

        Addr new_pc =
            final_dir ? d.predTarget : d.pc + isa::instBytes;
        // Oracle cursor: resume right after this branch in program order.
        if (d.correctPath) {
            oracleCursor = d.oracleIdx + 1;
            fetchOnOracle = true;
        }
        fetchPc = new_pc;
        fetchHalted = false;
        lastFetchLine = ~0ull;
        fetchResumeCycle = now + 1;
    }
}

void
OoOCore::renamePredicated(DynInst &d)
{
    // Non-branch instruction guarded by a real predicate.
    if (cfg.predication == PredicationModel::Cmov ||
        cfg.scheme != PredictionScheme::PredicatePredictor) {
        d.cmovMode = true;
        return;
    }

    PprfEntry &e = pprf.entry(d.qpPhys);
    if (!e.speculative) {
        // Predicate already computed: exact decision, no speculation.
        if (!e.value) {
            d.nullified = true;
            ++stats_.nullifiedAtRename;
        } else {
            d.unguarded = true;
        }
        return;
    }
    if (!e.confident) {
        d.cmovMode = true;
        ++stats_.cmovFallbacks;
        return;
    }
    // Confident speculative prediction: consume it and register this
    // instruction as the flush point if it is the first consumer.
    if (!e.robPtrValid) {
        e.robPtrValid = true;
        e.robPtr = d.seq;
        e.robPtrSlot = d.robSlot;
        d.robPtrEntry = d.qpPhys;
    }
    if (!e.value) {
        d.nullified = true;
        ++stats_.nullifiedAtRename;
    } else {
        d.unguarded = true;
        ++stats_.unguardedAtRename;
    }
}

bool
OoOCore::renameOne()
{
    DynInst &fd = rob.feFront();
    if (fd.renameReadyCycle > now)
        return false;
    if (rob.robSize() >= cfg.robEntries)
        return false;

    const isa::Instruction *ins = fd.ins;
    const OpClass cls = ins->opClass();

    // Issue-queue admission.
    if (!fd.nullified) {
        if (cls == OpClass::Branch) {
            if (brIqCount >= cfg.brIqEntries)
                return false;
        } else if (ins->isFp() && !ins->isLoad() && !ins->isStore()) {
            if (fpIqCount >= cfg.fpIqEntries)
                return false;
        } else if (cls != OpClass::No_OpClass) {
            if (intIqCount >= cfg.intIqEntries)
                return false;
        }
    }
    if (ins->isLoad() && loadQ.size() >= cfg.lqEntries)
        return false;
    if (ins->isStore() && storeQ.size() >= cfg.sqEntries)
        return false;

    // Physical register availability.
    if (ins->isCompare()) {
        unsigned need = 0;
        if (ins->pdst1 != isa::regP0 && ins->pdst1 != invalidReg)
            ++need;
        if (ins->pdst2 != isa::regP0 && ins->pdst2 != invalidReg)
            ++need;
        if (!pprf.hasFree(need))
            return false;
    } else if (ins->dst != invalidReg) {
        if (ins->isFp() ? !fpMap.hasFree() : !intMap.hasFree())
            return false;
    }

    rob.promoteFront();
    DynInst &d = fd; // same slot: rename moves no data

    d.qpPhys = pprf.lookup(ins->qp);

    // Source renaming.
    if (ins->isFp() && !ins->isLoad() && !ins->isStore()) {
        if (ins->src1 != invalidReg)
            d.srcPhys1 = fpMap.lookup(ins->src1);
        if (ins->src2 != invalidReg)
            d.srcPhys2 = fpMap.lookup(ins->src2);
    } else if (ins->isStore()) {
        if (ins->src1 != invalidReg)
            d.srcPhys1 = intMap.lookup(ins->src1);
        if (ins->src2 != invalidReg)
            d.srcPhys2 = ins->isFp() ? fpMap.lookup(ins->src2)
                                     : intMap.lookup(ins->src2);
    } else {
        if (ins->src1 != invalidReg)
            d.srcPhys1 = intMap.lookup(ins->src1);
        if (ins->src2 != invalidReg)
            d.srcPhys2 = intMap.lookup(ins->src2);
    }

    // Predication decision must precede destination allocation: nullified
    // instructions leave the rename map untouched (the "multiple register
    // definitions" solution of the selective scheme).
    if (ins->isPredicated() && !ins->isBranch() && !ins->isCompare())
        renamePredicated(d);

    // Destination renaming.
    if (ins->isCompare()) {
        int uslot = 0;
        if (ins->pdst1 != isa::regP0 && ins->pdst1 != invalidReg) {
            const PhysRegIndex old = pprf.lookup(ins->pdst1);
            d.pdstPhys1 = pprf.allocate(ins->pdst1, d.seq);
            predWaiters[d.pdstPhys1].clear();
            d.renames[uslot++] = {RenameUndo::Class::Pred, ins->pdst1, old,
                                  d.pdstPhys1};
        }
        if (ins->pdst2 != isa::regP0 && ins->pdst2 != invalidReg) {
            const PhysRegIndex old = pprf.lookup(ins->pdst2);
            d.pdstPhys2 = pprf.allocate(ins->pdst2, d.seq);
            predWaiters[d.pdstPhys2].clear();
            d.renames[uslot++] = {RenameUndo::Class::Pred, ins->pdst2, old,
                                  d.pdstPhys2};
        }
        if (cfg.scheme == PredictionScheme::PredicatePredictor) {
            if (d.pdstPhys1 != invalidPhysReg)
                pprf.writePrediction(d.pdstPhys1, d.ppState.pred1,
                                     d.ppState.conf1);
            if (d.pdstPhys2 != invalidPhysReg)
                pprf.writePrediction(d.pdstPhys2, d.ppState.pred2,
                                     d.ppState.conf2);
        }
    } else if (ins->dst != invalidReg && !d.nullified) {
        RenameMap &map = ins->isFp() ? fpMap : intMap;
        const auto rclass = ins->isFp() ? RenameUndo::Class::Fp
                                        : RenameUndo::Class::Int;
        d.oldDstPhys = map.lookup(ins->dst);
        d.dstPhys = map.allocate(ins->dst);
        (ins->isFp() ? fpWaiters : intWaiters)[d.dstPhys].clear();
        d.renames[0] = {rclass, ins->dst, d.oldDstPhys, d.dstPhys};
    }

    // Memory effective address (timing). Wrong-path accesses use a
    // pseudo-address so cache pollution is modeled.
    if ((ins->isLoad() || ins->isStore()) && !d.nullified) {
        d.memAddr = d.correctPath
            ? d.rec.memAddr
            : (mix64(d.pc ^ d.seq) & (program.dataSize() - 1) & ~7ull);
        if (ins->isLoad()) {
            loadQ.push_back(d.seq);
        } else {
            d.sqPos = sqBase + storeQ.size();
            storeQ.push_back({d.seq, d.memAddr >> 3, 0, false});
        }
    }

    // Branches consult the second level / PPRF here (3-cycle latency has
    // elapsed since fetch) and may redirect the front end.
    if (ins->isBranch())
        renameBranch(d);

    d.stage = InstStage::Renamed;
    if (d.nullified) {
        d.stage = InstStage::Done;
        d.doneCycle = now;
    } else if (cls == OpClass::Branch) {
        d.iqClass = IqClass::Br;
    } else if (ins->isFp() && !ins->isLoad() && !ins->isStore()) {
        d.iqClass = IqClass::Fp;
    } else if (cls != OpClass::No_OpClass) {
        d.iqClass = IqClass::Int;
    } else {
        // True nop: completes immediately.
        d.stage = InstStage::Done;
        d.doneCycle = now;
    }
    if (d.iqClass != IqClass::None) {
        ++iqCount(d.iqClass);
        enqueueForIssue(d);
    }
    return true;
}

void
OoOCore::doRename()
{
    for (unsigned i = 0; i < cfg.renameWidth && rob.feSize() > 0; ++i) {
        if (!renameOne())
            break;
    }
}

// ---------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------

void
OoOCore::enqueueForIssue(DynInst &d)
{
    const isa::Instruction *ins = d.ins;
    const bool fp_srcs = ins->isFp() && !ins->isLoad() && !ins->isStore();

    // Resolve the FU pool once; doIssue re-checks budgets every cycle.
    switch (ins->opClass()) {
      case OpClass::IntAlu:
      case OpClass::Compare: d.fuIndex = 0; break;
      case OpClass::IntMult: d.fuIndex = 1; break;
      case OpClass::FloatAdd: d.fuIndex = 2; break;
      case OpClass::FloatMult:
      case OpClass::FloatDiv: d.fuIndex = 3; break;
      case OpClass::MemRead:
      case OpClass::MemWrite: d.fuIndex = 4; break;
      case OpClass::Branch: d.fuIndex = 5; break;
      default: d.fuIndex = DynInst::noFu; break;
    }

    d.waitCount = 0;
    auto wait_int = [&](PhysRegIndex p) {
        if (p == invalidPhysReg || intMap.isReady(p, now))
            return;
        intWaiters[p].push_back({d.robSlot, d.seq});
        ++d.waitCount;
    };
    auto wait_fp = [&](PhysRegIndex p) {
        if (p == invalidPhysReg || fpMap.isReady(p, now))
            return;
        fpWaiters[p].push_back({d.robSlot, d.seq});
        ++d.waitCount;
    };
    auto wait_pred = [&](PhysRegIndex p) {
        if (p == invalidPhysReg || pprf.entry(p).readyCycle <= now)
            return;
        predWaiters[p].push_back({d.robSlot, d.seq});
        ++d.waitCount;
    };

    if (fp_srcs) {
        wait_fp(d.srcPhys1);
        wait_fp(d.srcPhys2);
    } else if (ins->isStore()) {
        wait_int(d.srcPhys1);
        if (ins->isFp())
            wait_fp(d.srcPhys2);
        else
            wait_int(d.srcPhys2);
    } else {
        wait_int(d.srcPhys1);
        wait_int(d.srcPhys2);
    }

    // Qualifying predicate: branches resolve by reading it; CMOV-mode
    // instructions carry it (plus the old destination) as extra operands.
    if (ins->isBranch() && ins->isConditionalBranch())
        wait_pred(d.qpPhys);
    if (d.cmovMode) {
        wait_pred(d.qpPhys);
        if (ins->isFp())
            wait_fp(d.oldDstPhys);
        else
            wait_int(d.oldDstPhys);
    }

    if (d.waitCount == 0)
        pushReadyAtRename(&d);
}

void
OoOCore::wakeWaiters(std::vector<RobRef> &waiters)
{
    for (const RobRef &ref : waiters) {
        DynInst *w = rob.at(ref);
        if (w == nullptr || w->stage != InstStage::Renamed)
            continue; // squashed since it registered
        if (--w->waitCount == 0)
            pushReadyAtWakeup(w);
    }
    waiters.clear();
}

void
OoOCore::scheduleCompletion(const DynInst &d, Cycle done)
{
    const Cycle due = std::max(done, now + 1);
    std::uint32_t e = freeEvent;
    if (e == kNoEvent) {
        e = static_cast<std::uint32_t>(completionEvents.size());
        completionEvents.emplace_back();
    } else {
        freeEvent = completionEvents[e].next;
    }
    std::uint32_t &head = calendar[due & (kCalendarSpan - 1)];
    completionEvents[e] = {due, d.seq, d.robSlot, head};
    head = e;
}

Cycle
OoOCore::executeLatency(const DynInst &d) const
{
    switch (d.ins->opClass()) {
      case OpClass::IntAlu: return cfg.intAluLat;
      case OpClass::IntMult: return cfg.intMultLat;
      case OpClass::FloatAdd: return cfg.fpAddLat;
      case OpClass::FloatMult:
        return d.ins->op == Opcode::FDiv ? cfg.fpDivLat : cfg.fpMulLat;
      case OpClass::FloatDiv: return cfg.fpDivLat;
      case OpClass::Compare: return cfg.compareLat;
      case OpClass::Branch: return cfg.branchLat;
      default: return 1;
    }
}

void
OoOCore::doIssue()
{
    unsigned int_alu = cfg.intAluUnits;
    unsigned int_mult = cfg.intMultUnits;
    unsigned fp_add = cfg.fpAddUnits;
    unsigned fp_mul = cfg.fpMulUnits;
    unsigned mem_ports = cfg.memPorts;
    unsigned br_units = cfg.branchUnits;
    unsigned *const budgets[6] = {&int_alu, &int_mult, &fp_add,
                                  &fp_mul,  &mem_ports, &br_units};

    // Only operand-ready instructions are examined: the lists were filled
    // by producer broadcasts (and rename, for born-ready instructions).
    // Scanning oldest-first preserves the polling scheduler's seq-order
    // FU allocation; entries that lose on a budget (or a load blocked on
    // store disambiguation) are compacted in place and retry next cycle.
    auto issue_from = [&](std::vector<DynInst *> &ready) {
        std::size_t keep = 0;
        for (DynInst *d : ready) {
            // Functional-unit availability (pool resolved at rename).
            if (d->fuIndex == DynInst::noFu) {
                ready[keep++] = d;
                continue;
            }
            unsigned *budget = budgets[d->fuIndex];
            if (*budget == 0) {
                ready[keep++] = d;
                continue;
            }

            Cycle done;
            if (d->isLoad()) {
                // Conservative disambiguation: wait until every older
                // store in the SQ has computed its address. The SQ caches
                // that state flat, so this never touches the ROB.
                bool blocked = false;
                const StoreRecord *fwd = nullptr;
                const Addr line_key = d->memAddr >> 3;
                for (const StoreRecord &s : storeQ) {
                    if (s.seq >= d->seq)
                        break;
                    if (!s.addrReady || s.addrReadyCycle > now) {
                        blocked = true;
                        break;
                    }
                    if (s.lineKey == line_key)
                        fwd = &s; // youngest older match wins
                }
                if (blocked) {
                    ready[keep++] = d;
                    continue;
                }
                if (fwd != nullptr) {
                    done = now + cfg.agenLat + cfg.forwardLat;
                } else {
                    done = mem.dataAccess(d->memAddr, false,
                                          now + cfg.agenLat);
                }
            } else if (d->isStore()) {
                done = now + cfg.agenLat;
                StoreRecord &rec = storeQ[d->sqPos - sqBase];
                rec.addrReady = true;
                rec.addrReadyCycle = done;
            } else {
                done = now + executeLatency(*d);
            }

            --*budget;
            d->stage = InstStage::Issued;
            d->doneCycle = done;
            scheduleCompletion(*d, done);
            --iqCount(d->iqClass);
        }
        ready.resize(keep);
    };

    issue_from(brIqReady);
    issue_from(intIqReady);
    issue_from(fpIqReady);
}

// ---------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------

void
OoOCore::completeCompare(DynInst &d)
{
    // Determine the architectural values of the two predicate targets.
    bool v1 = false;
    bool v2 = false;
    if (d.correctPath) {
        v1 = d.rec.pd1Written
            ? d.rec.pd1Val
            : (d.renames[0].regClass == RenameUndo::Class::Pred
               ? pprf.entry(d.renames[0].oldPhys).value : false);
        // Locate pdst2's undo slot (it is slot 1 when pdst1 was renamed,
        // else slot 0).
        const int slot2 = d.pdstPhys1 != invalidPhysReg ? 1 : 0;
        v2 = d.rec.pd2Written
            ? d.rec.pd2Val
            : (d.pdstPhys2 != invalidPhysReg
               ? pprf.entry(d.renames[slot2].oldPhys).value : false);
    }
    d.actualPd1 = v1;
    d.actualPd2 = v2;

    if (d.pdstPhys1 != invalidPhysReg) {
        pprf.writeComputed(d.pdstPhys1, v1, d.doneCycle);
        wakeWaiters(predWaiters[d.pdstPhys1]);
    }
    if (d.pdstPhys2 != invalidPhysReg) {
        pprf.writeComputed(d.pdstPhys2, v2, d.doneCycle);
        wakeWaiters(predWaiters[d.pdstPhys2]);
    }

    if (!d.correctPath)
        return;

    // PEP-PA's logical predicate register file is written at writeback,
    // out of order — including the staleness that entails.
    if (d.rec.pd1Written)
        archPred[d.ins->pdst1] = d.rec.pd1Val;
    if (d.rec.pd2Written)
        archPred[d.ins->pdst2] = d.rec.pd2Val;

    if (cfg.scheme != PredictionScheme::PredicatePredictor)
        return;

    // Repair the speculative global history bit this compare inserted.
    // Compares that predicted in between keep what they saw (§3.3).
    if (d.ppState.valid && d.ppState.pred1 != v1)
        ++stats_.comparePd1Mispredicts;
    if (d.ppState.valid && d.ppState.pred1 != v1 &&
        !cfg.idealPerfectHistory) {
        // Repair the wrong bit wherever it lives: in the checkpoints of
        // every in-flight younger compare (so a later squash-restore, and
        // their eventual training, see the computed value) and in the
        // live histories. The *predictions* those compares already made
        // with the corrupted bit stand — the §3.3 corruption window.
        unsigned ghr_depth = 0; // compares that shifted after this one
        unsigned lht_depth = 0; // ... with the same PC (local history)
        auto patch = [&](DynInst &y) {
            if (!y.isCompare() || !y.ppState.valid || y.seq <= d.seq)
                return;
            y.ppState.ghrCkpt ^= (1ull << ghr_depth);
            if (y.pc == d.pc) {
                y.ppState.localCkpt ^= (1ull << lht_depth);
                ++lht_depth;
            }
            ++ghr_depth;
        };
        rob.forEach(patch); // ROB then fetch buffer: global age order
        CompareContext cctx;
        cctx.pc = d.pc;
        bpu.predicate->correctHistoryAtDepth(cctx, d.ppState, v1,
                                             ghr_depth, lht_depth);
    }

    // Selective predication: a wrong prediction consumed by an
    // if-converted instruction flushes from the first consumer.
    InstSeqNum flush_seq = invalidSeqNum;
    std::uint32_t flush_slot = 0;
    for (const PhysRegIndex p : {d.pdstPhys1, d.pdstPhys2}) {
        if (p == invalidPhysReg)
            continue;
        const PprfEntry &e = pprf.entry(p);
        if (e.mispredicted && e.robPtrValid) {
            if (flush_seq == invalidSeqNum || e.robPtr < flush_seq) {
                flush_seq = e.robPtr;
                flush_slot = e.robPtrSlot;
            }
        }
    }
    if (flush_seq != invalidSeqNum) {
        DynInst *victim = rob.at(flush_slot, flush_seq);
        if (victim != nullptr && victim->correctPath) {
            ++stats_.predicateFlushes;
            const Addr refetch = victim->pc;
            const std::uint64_t oidx = victim->oracleIdx;
            squashFrom(flush_seq, refetch, cfg.mispredictRecovery);
            oracleCursor = oidx;
            fetchOnOracle = true;
        }
    }
}

void
OoOCore::completeBranch(DynInst &d)
{
    if (!d.correctPath)
        return; // modeled choice: wrong-path branches do not redirect

    const bool actual = d.rec.branchTaken;
    const bool dir_wrong =
        d.ins->isConditionalBranch() && actual != d.finalPredTaken;
    const bool target_wrong =
        !dir_wrong && actual && d.predTarget != d.rec.nextPc;

    if (!dir_wrong && !target_wrong)
        return;

    ++stats_.branchMispredFlushes;
    if (traceOn) {
        logRawf("[%llu] brflush seq=%llu idx=%llu pc=0x%llx -> "
                     "0x%llx dirw=%d tgtw=%d\n",
                     (unsigned long long)now, (unsigned long long)d.seq,
                     (unsigned long long)d.oracleIdx,
                     (unsigned long long)d.pc,
                     (unsigned long long)d.rec.nextPc, dir_wrong,
                     target_wrong);
    }
    squashFrom(d.seq + 1, d.rec.nextPc, cfg.mispredictRecovery);
    oracleCursor = d.oracleIdx + 1;
    fetchOnOracle = true;

    // Rewrite this branch's own speculative history bit with the truth.
    if (d.ins->isConditionalBranch()) {
        bpu.l1->correctHistory(d.l1State, actual);
        if (bpu.l2)
            bpu.l2->correctHistory(d.l2State, actual);
    }
}

void
OoOCore::processCompletions()
{
    // Unlink every event due this cycle from its bucket (events of later
    // laps stay) into the reused scratch buffer, then order it oldest
    // instruction first: the order hardware completes a cycle's results.
    dueScratch.clear();
    std::uint32_t *link = &calendar[now & (kCalendarSpan - 1)];
    while (*link != kNoEvent) {
        const std::uint32_t e = *link;
        CompletionEvent &ev = completionEvents[e];
        if (ev.cycle > now) {
            link = &ev.next;
            continue;
        }
        dueScratch.emplace_back(ev.seq, ev.slot);
        *link = ev.next;
        ev.next = freeEvent;
        freeEvent = e;
    }
    std::sort(dueScratch.begin(), dueScratch.end());

    for (const auto &[seq, slot] : dueScratch) {
        DynInst *d = rob.at(slot, seq);
        if (d == nullptr || d->stage != InstStage::Issued)
            continue; // squashed (possibly by an older event this cycle)
        d->stage = InstStage::Done;

        if (d->dstPhys != invalidPhysReg) {
            if (d->ins->isFp()) {
                fpMap.setReady(d->dstPhys, d->doneCycle);
                wakeWaiters(fpWaiters[d->dstPhys]);
            } else {
                intMap.setReady(d->dstPhys, d->doneCycle);
                wakeWaiters(intWaiters[d->dstPhys]);
            }
        }
        if (d->isCompare())
            completeCompare(*d);
        else if (d->isBranch())
            completeBranch(*d);
    }
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
OoOCore::commitTrain(DynInst &d)
{
    static const char *trace_pc_env = std::getenv("REPRO_TRACE_PC");
    static const Addr trace_pc =
        trace_pc_env ? std::strtoull(trace_pc_env, nullptr, 16) : 0;
    if (trace_pc != 0 && d.pc == trace_pc && d.ins->isConditionalBranch()) {
        logRawf("BR pc=0x%llx pred=%d actual=%d early=%d "
                     "l2ghr=%06llx l2loc=%03llx ppPred2=%d\n",
                     (unsigned long long)d.pc, (int)d.finalPredTaken,
                     (int)d.rec.branchTaken, (int)d.earlyResolved,
                     (unsigned long long)(d.l2State.ghrCkpt & 0xffffff),
                     (unsigned long long)(d.l2State.localCkpt & 0x3ff),
                     (int)d.ppState.pred2);
    }
    if (trace_pc != 0 && d.isCompare() && d.pc == trace_pc) {
        logRawf("CMP pc=0x%llx pred1=%d act1=%d ghr=%06llx loc=%03llx"
                     " out1=%d\n",
                     (unsigned long long)d.pc, (int)d.ppState.pred1,
                     (int)d.actualPd1,
                     (unsigned long long)(d.ppState.ghrCkpt & 0xffffff),
                     (unsigned long long)(d.ppState.localCkpt & 0x3ff),
                     d.ppState.out1);
    }
    if (d.ins->isConditionalBranch()) {
        ++stats_.committedCondBranches;
        const bool actual = d.rec.branchTaken;
        if (d.finalPredTaken != actual) {
            ++stats_.mispredictedCondBranches;
            // An early-resolved branch read its computed predicate (§3.1).
            if (d.earlyResolved)
                panic("early-resolved branch mispredicted");
        }
        if (d.l1State.valid && d.l1State.predTaken != actual)
            ++stats_.l1MispredictedCondBranches;
        if (d.earlyResolved)
            ++stats_.earlyResolvedBranches;

        BranchContext bctx;
        bctx.pc = d.pc;
        bctx.qpLogical = d.ins->qp;
        bpu.l1->resolve(bctx, d.l1State, actual);
        if (bpu.l2)
            bpu.l2->resolve(bctx, d.l2State, actual);

        // Fig. 6b methodology: a trace-driven conventional predictor runs
        // alongside; we count cases where the predicate was ready and the
        // conventional predictor would have been wrong.
        if (bpu.shadow) {
            predictor::PredState sst;
            const bool spred = bpu.shadow->predict(bctx, sst);
            bpu.shadow->resolve(bctx, sst, actual);
            if (spred != actual) {
                ++stats_.shadowMispredicts;
                bpu.shadow->correctHistory(sst, actual);
                if (d.earlyResolved)
                    ++stats_.earlyResolvedShadowWrong;
            }
        }
    } else if (d.isCompare()) {
        ++stats_.committedCompares;
        if (cfg.scheme == PredictionScheme::PredicatePredictor) {
            CompareContext cctx;
            cctx.pc = d.pc;
            cctx.needSecond = d.pdstPhys2 != invalidPhysReg;
            bpu.predicate->resolve(cctx, d.ppState, d.actualPd1,
                                   d.actualPd2);
        }
    }

    if (d.ins->isPredicated() && !d.isBranch() && !d.isCompare())
        ++stats_.committedPredicated;
}

void
OoOCore::doCommit()
{
    for (unsigned i = 0; i < cfg.commitWidth && rob.robSize() > 0; ++i) {
        DynInst &h = rob.front();
        if (h.stage != InstStage::Done || h.doneCycle > now)
            break;
        panicIfNot(h.correctPath,
                   "wrong-path instruction reached the ROB head");

        // Stores write memory at commit (absorbed by the write buffer).
        if (h.isStore() && h.rec.qpVal && !h.nullified)
            mem.dataAccess(h.memAddr, true, now);

        // Release LSQ entries (commit is in order, so the entry for this
        // instruction, if any, is at the queue head).
        if (!loadQ.empty() && loadQ.front() == h.seq)
            loadQ.pop_front();
        if (!storeQ.empty() && storeQ.front().seq == h.seq) {
            storeQ.pop_front();
            ++sqBase;
        }

        commitTrain(h);

        for (const RenameUndo &u : h.renames) {
            switch (u.regClass) {
              case RenameUndo::Class::Int: intMap.release(u.oldPhys); break;
              case RenameUndo::Class::Fp: fpMap.release(u.oldPhys); break;
              case RenameUndo::Class::Pred: pprf.release(u.oldPhys); break;
              case RenameUndo::Class::None: break;
            }
        }

        ++stats_.committedInsts;
        trimOracle(h.oracleIdx);
        rob.popFront();
    }
}

// ---------------------------------------------------------------------
// Squash
// ---------------------------------------------------------------------

void
OoOCore::undoInst(DynInst &d)
{
    // Predictor speculative-history rollback (youngest-first order is the
    // caller's responsibility).
    if (d.ins->isConditionalBranch()) {
        bpu.l1->squash(d.l1State);
        if (bpu.l2)
            bpu.l2->squash(d.l2State);
    }
    if (d.isCompare() && bpu.predicate)
        bpu.predicate->squash(d.ppState);
    if (d.isBranch())
        bpu.ras.restore({d.rasCkptTop, d.rasCkptAddr});

    // If this instruction registered itself as a PPRF flush point, clear
    // the pointer so a later consumer can re-register.
    if (d.robPtrEntry != invalidPhysReg) {
        PprfEntry &e = pprf.entry(d.robPtrEntry);
        if (e.robPtrValid && e.robPtr == d.seq)
            e.robPtrValid = false;
    }

    // Rename-map rollback (reverse order of allocation).
    for (int i = 1; i >= 0; --i) {
        const RenameUndo &u = d.renames[i];
        switch (u.regClass) {
          case RenameUndo::Class::Int:
            intMap.restore(u.logical, u.oldPhys, u.newPhys);
            break;
          case RenameUndo::Class::Fp:
            fpMap.restore(u.logical, u.oldPhys, u.newPhys);
            break;
          case RenameUndo::Class::Pred:
            pprf.restore(u.logical, u.oldPhys, u.newPhys);
            break;
          case RenameUndo::Class::None:
            break;
        }
    }
}

void
OoOCore::sweepQueues(InstSeqNum first_bad)
{
    // Ready lists hold raw pointers into still-live ROB slots, so they
    // are pruned before the squash loop pops those slots. Waiter lists
    // are left alone: their (slot, seq) references go stale the moment
    // the slot is popped and are dropped lazily at the next broadcast.
    auto prune_ready = [&](std::vector<DynInst *> &q) {
        q.erase(std::remove_if(q.begin(), q.end(),
                               [&](const DynInst *d) {
                                   return d->seq >= first_bad;
                               }),
                q.end());
    };
    prune_ready(intIqReady);
    prune_ready(fpIqReady);
    prune_ready(brIqReady);

    while (!loadQ.empty() && loadQ.back() >= first_bad)
        loadQ.pop_back();
    while (!storeQ.empty() && storeQ.back().seq >= first_bad)
        storeQ.pop_back();
}

void
OoOCore::squashFrom(InstSeqNum first_bad, Addr new_pc, Cycle resume_delay)
{
    sweepQueues(first_bad);

    // Youngest first: the ring tail walks the fetch buffer, then the
    // renamed region — global reverse age order, exactly as the separate
    // front-end and ROB walks did.
    std::uint64_t min_oracle = wrongPathOracle;
    while (rob.total() > 0 && rob.back().seq >= first_bad) {
        DynInst &d = rob.back();
        if (d.correctPath && d.oracleIdx < min_oracle)
            min_oracle = d.oracleIdx;
        if (d.stage == InstStage::Renamed && d.iqClass != IqClass::None)
            --iqCount(d.iqClass);
        undoInst(d);
        rob.popBack();
    }

    if (min_oracle != wrongPathOracle) {
        oracleCursor = min_oracle;
        fetchOnOracle = true;
    }

    fetchPc = new_pc;
    fetchHalted = false;
    lastFetchLine = ~0ull;
    fetchResumeCycle = now + resume_delay;
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

void
OoOCore::tick()
{
    ++now;
    ++stats_.cycles;
    processCompletions();
    doCommit();
    doIssue();
    doRename();
    doFetch();
}

void
OoOCore::dumpState() const
{
    std::size_t completions = 0;
    for (std::uint32_t e : calendar)
        for (; e != kNoEvent; e = completionEvents[e].next)
            ++completions;
    logRawf("cycle=%llu committed=%llu rob=%zu fe=%zu iq(i/f/b)="
                 "%u/%u/%u lq=%zu sq=%zu events=%zu\n",
                 static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(stats_.committedInsts),
                 rob.robSize(), rob.feSize(), intIqCount, fpIqCount,
                 brIqCount, loadQ.size(), storeQ.size(),
                 completions);
    logRawf("fetchPc=0x%llx resume=%llu halted=%d onOracle=%d "
                 "cursor=%llu base=%llu free(i/f/p)=%zu/%zu\n",
                 static_cast<unsigned long long>(fetchPc),
                 static_cast<unsigned long long>(fetchResumeCycle),
                 fetchHalted, fetchOnOracle,
                 static_cast<unsigned long long>(oracleCursor),
                 static_cast<unsigned long long>(oracleBase),
                 intMap.freeCount(), fpMap.freeCount());
    for (std::size_t i = 0; i < rob.robSize() && i < 8; ++i) {
        const DynInst &d = rob.atIndex(i);
        logRawf("  rob[%zu] seq=%llu pc=0x%llx stage=%d cp=%d "
                     "done=%llu  %s\n",
                     i + 1, static_cast<unsigned long long>(d.seq),
                     static_cast<unsigned long long>(d.pc),
                     static_cast<int>(d.stage), d.correctPath,
                     static_cast<unsigned long long>(d.doneCycle),
                     d.ins->disassemble().c_str());
    }
    for (std::size_t i = 0; i < rob.feSize() && i < 4; ++i) {
        const DynInst &d = rob.atIndex(rob.robSize() + i);
        logRawf("  fe[%zu] seq=%llu pc=0x%llx rdy=%llu %s\n",
                     i + 1, static_cast<unsigned long long>(d.seq),
                     static_cast<unsigned long long>(d.pc),
                     static_cast<unsigned long long>(d.renameReadyCycle),
                     d.ins->disassemble().c_str());
    }
}

void
OoOCore::run(std::uint64_t max_committed)
{
    const Cycle start = now;
    const Cycle limit = start + max_committed * 200 + 100000;
    while (stats_.committedInsts < max_committed) {
        tick();
        panicIfNot(now < limit, "simulation wedged (cycle limit hit)");
    }
}

// ---------------------------------------------------------------------
// Sampled simulation: drain + functional fast-forward
// ---------------------------------------------------------------------

void
OoOCore::drainPipeline()
{
    if (rob.total() == 0)
        return;
    fetchFrozen = true;
    const Cycle limit = now + 200 * rob.total() + 100000;
    while (rob.total() > 0) {
        tick();
        panicIfNot(now < limit, "pipeline drain wedged (cycle limit hit)");
    }
    fetchFrozen = false;
}

void
OoOCore::warmCompare(const isa::Instruction *ins, Addr pc,
                     bool pd1_written, bool pd1_val, bool pd2_written,
                     bool pd2_val, bool warm_tables)
{
    // Architectural target values: the written value, else the value
    // the register held before this compare (completeCompare's rule).
    auto arch_val = [&](RegIndex l, bool written, bool val) {
        if (written)
            return val;
        return l != isa::regP0 && l != invalidReg ? archPred[l] : false;
    };
    const bool v1 = arch_val(ins->pdst1, pd1_written, pd1_val);
    const bool v2 = arch_val(ins->pdst2, pd2_written, pd2_val);

    if (warm_tables && cfg.scheme == PredictionScheme::PredicatePredictor)
        bpu.trainCompare(*ins, pc, v1, v2, pd1_val, pd2_val);

    // Committed predicate state: PEP-PA's logical file and the
    // architecturally mapped PPRF entries (rename reads both).
    auto sync_pred = [&](RegIndex l, bool written, bool val) {
        if (!written || l == isa::regP0 || l == invalidReg)
            return;
        archPred[l] = val;
        PprfEntry &e = pprf.entry(pprf.lookup(l));
        e.value = val;
        e.speculative = false;
        e.mispredicted = false;
        e.readyCycle = now;
    };
    sync_pred(ins->pdst1, pd1_written, pd1_val);
    sync_pred(ins->pdst2, pd2_written, pd2_val);
}

void
OoOCore::syncPredicatesFromOracle(std::uint64_t written_mask)
{
    // Identical end state to syncing at every intermediate write: the
    // emulator's register holds the last written value, and rename only
    // ever reads the committed (final) entry.
    for (RegIndex l = 1; l < isa::numPredRegs; ++l) {
        if (!(written_mask & (1ull << l)))
            continue;
        const bool val = emu.predReg(l);
        archPred[l] = val;
        PprfEntry &e = pprf.entry(pprf.lookup(l));
        e.value = val;
        e.speculative = false;
        e.mispredicted = false;
        e.readyCycle = now;
    }
}

void
OoOCore::warmInstruction(const program::ExecRecord &rec, bool warm_tables,
                         Addr &warm_line)
{
    const isa::Instruction *ins = rec.ins;

    if (warm_tables) {
        // I-side: one cache touch per fetched line, as fetch charges it.
        const Addr line = rec.pc >> iLineShift;
        if (line != warm_line) {
            mem.instAccess(rec.pc, now);
            warm_line = line;
        }
        if ((ins->isLoad() || ins->isStore()) && rec.qpVal)
            mem.dataAccess(rec.memAddr, ins->isStore(), now);
    }

    if (warm_tables && ins->isConditionalBranch())
        bpu.trainBranch(*ins, rec.pc, archPred[ins->qp], rec.branchTaken);

    if (ins->isCompare()) {
        warmCompare(ins, rec.pc, rec.pd1Written, rec.pd1Val,
                    rec.pd2Written, rec.pd2Val, warm_tables);
    }

    // The return-address stack mirrors the call stack (a cold RAS would
    // mispredict every return until re-filled).
    if (rec.branchTaken) {
        if (ins->op == Opcode::BrCall)
            bpu.ras.push(rec.pc + isa::instBytes);
        else if (ins->op == Opcode::BrRet)
            bpu.ras.pop();
    }
}

/**
 * Skip tier: between the warming horizon and the next window only the
 * return-address stack must replay events in order (its circular
 * clobbering is history-dependent); predicate state is re-synced in one
 * batch from the final register values afterwards.
 */
struct OoOCore::FfSkipSink final : program::Emulator::FfSink
{
    explicit FfSkipSink(OoOCore &c) : core(c) {}

    void takenCall(Addr ret_addr) override { core.bpu.ras.push(ret_addr); }
    void takenRet() override { core.bpu.ras.pop(); }

    OoOCore &core;
};

/** Warm tier: full functional warming, one event per relevant op. */
struct OoOCore::FfWarmSink final : program::Emulator::FfSink
{
    explicit FfWarmSink(OoOCore &c) : core(c) {}

    void
    instLine(Addr pc) override
    {
        core.mem.instAccess(pc, core.now);
    }

    void
    memAccess(Addr addr, bool is_store) override
    {
        core.mem.dataAccess(addr, is_store, core.now);
    }

    void
    condBranch(const isa::Instruction *ins, Addr pc, bool taken) override
    {
        core.bpu.trainBranch(*ins, pc, core.archPred[ins->qp], taken);
    }

    void
    compare(const isa::Instruction *ins, Addr pc, bool pd1_written,
            bool pd1_val, bool pd2_written, bool pd2_val) override
    {
        core.warmCompare(ins, pc, pd1_written, pd1_val, pd2_written,
                         pd2_val, true);
    }

    void takenCall(Addr ret_addr) override { core.bpu.ras.push(ret_addr); }
    void takenRet() override { core.bpu.ras.pop(); }

    OoOCore &core;
};

void
OoOCore::warmReplay(const std::vector<std::uint64_t> &events)
{
    panicIfNot(events.size() % program::kWarmEventWords == 0,
               "malformed warm event stream (odd word count)");
    const isa::Instruction *image = program.image().data();
    for (std::size_t i = 0; i < events.size();
         i += program::kWarmEventWords) {
        const std::uint64_t word = events[i];
        const Addr addr = events[i + 1];
        const auto kind =
            static_cast<program::WarmEventKind>(word & 0xff);
        const std::uint64_t flags = word >> 8;
        switch (kind) {
          case program::WarmEventKind::InstLine:
            mem.instAccess(addr, now);
            break;
          case program::WarmEventKind::Mem:
            mem.dataAccess(addr, (flags & 1) != 0, now);
            break;
          case program::WarmEventKind::Branch: {
            const isa::Instruction &ins = image[addr / isa::instBytes];
            bpu.trainBranch(ins, addr, archPred[ins.qp], (flags & 1) != 0);
            break;
          }
          case program::WarmEventKind::Compare:
            // Re-applying the compares is idempotent on the committed
            // predicate state the resume constructor already seeded:
            // the last recorded write of each register IS the
            // checkpoint value.
            warmCompare(&image[addr / isa::instBytes], addr,
                        (flags & program::kWarmPd1Written) != 0,
                        (flags & program::kWarmPd1Val) != 0,
                        (flags & program::kWarmPd2Written) != 0,
                        (flags & program::kWarmPd2Val) != 0, true);
            break;
          default:
            panic("malformed warm event stream (unknown kind)");
        }
    }
}

void
OoOCore::fastForward(std::uint64_t n, bool warm_tables)
{
    if (n == 0)
        return;
    panicIfNot(rob.total() == 0,
               "fastForward requires a drained pipeline");
    obs::ScopedSpan span(obs::tracer(),
                         warm_tables ? "ff_warm" : "ff_skip", "sampling");

    // Records the oracle already materialized for the (now drained)
    // detailed window are consumed first; past them the emulator
    // advances record-free on the decoded stream.
    Addr warm_line = ~0ull;
    while (n > 0 && !oracleRing.empty()) {
        const program::ExecRecord rec = oracleRing.front();
        oracleRing.popFront();
        ++oracleBase;
        warmInstruction(rec, warm_tables, warm_line);
        fetchPc = rec.nextPc;
        --n;
    }

    if (n > 0) {
        if (warm_tables) {
            FfWarmSink sink(*this);
            emu.warmForward(n, sink, iLineShift, warm_line);
        } else {
            FfSkipSink sink(*this);
            syncPredicatesFromOracle(emu.skip(n, &sink));
        }
        oracleBase += n;
        fetchPc = emu.pc();
    }

    // Redirect fetch to the resume point on the correct path.
    oracleCursor = oracleBase;
    fetchOnOracle = true;
    fetchHalted = false;
    lastFetchLine = ~0ull;
    fetchResumeCycle = now;
}

} // namespace core
} // namespace pp
