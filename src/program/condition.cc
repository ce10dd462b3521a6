#include "program/condition.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pp
{
namespace program
{

ConditionSpec
ConditionSpec::biased(double p)
{
    ConditionSpec s;
    s.kind = Kind::Biased;
    s.bias = p;
    return s;
}

ConditionSpec
ConditionSpec::loop(std::uint32_t trip_count)
{
    ConditionSpec s;
    s.kind = Kind::Loop;
    s.period = trip_count < 2 ? 2 : trip_count;
    return s;
}

ConditionSpec
ConditionSpec::makePattern(std::uint64_t bits, std::uint32_t len)
{
    ConditionSpec s;
    s.kind = Kind::Pattern;
    s.pattern = bits;
    s.period = len == 0 ? 1 : (len > 64 ? 64 : len);
    return s;
}

ConditionSpec
ConditionSpec::correlated(Fn fn, CondId s0, CondId s1, double noise)
{
    ConditionSpec s;
    s.kind = Kind::Correlated;
    s.fn = fn;
    s.srcs = {s0, s1};
    s.noise = noise;
    return s;
}

ConditionSpec
ConditionSpec::dataDep(double p)
{
    ConditionSpec s;
    s.kind = Kind::DataDep;
    s.bias = p;
    return s;
}

// ---------------------------------------------------------------------
// ConditionSource: unified sparse checkpointing
// ---------------------------------------------------------------------

ConditionSource::Checkpoint
ConditionSource::checkpoint() const
{
    Checkpoint c;
    c.numConds = static_cast<std::uint32_t>(state.size());
    c.replay = isReplay();
    for (std::size_t i = 0; i < state.size(); ++i) {
        const CondState &st = state[i];
        // Untouched conditions are still at their reset state (only
        // evaluate() mutates them), so the reset-then-apply restore
        // below reproduces them without an entry.
        if (!st.touched)
            continue;
        c.ids.push_back(static_cast<CondId>(i));
        c.pos.push_back(st.pos);
        c.last.push_back(st.last ? 1 : 0);
    }
    c.rng = rngState();
    return c;
}

void
ConditionSource::restore(const Checkpoint &ckpt)
{
    panicIfNot(ckpt.numConds == state.size(),
               "condition checkpoint is for a different program");
    panicIfNot(ckpt.replay == isReplay(),
               "condition checkpoint is from the other source kind "
               "(generation vs replay)");
    panicIfNot(ckpt.ids.size() == ckpt.pos.size() &&
               ckpt.ids.size() == ckpt.last.size(),
               "condition checkpoint entry arrays disagree");
    for (CondState &st : state)
        st = CondState{};
    CondId prev = invalidCond;
    for (std::size_t k = 0; k < ckpt.ids.size(); ++k) {
        const CondId id = ckpt.ids[k];
        panicIfNot(id < state.size() && (prev == invalidCond || id > prev),
                   "condition checkpoint ids out of range or unsorted");
        prev = id;
        // Checkpoints cross machine boundaries; an out-of-range cursor
        // from a corrupt image would shift by >= 64 (UB) or silently
        // diverge the condition stream, so reject it here.
        checkCursor(id, ckpt.pos[k]);
        state[id].pos = ckpt.pos[k];
        state[id].last = ckpt.last[k] != 0;
        state[id].touched = true;
    }
    setRngState(ckpt.rng);
}

// ---------------------------------------------------------------------
// ConditionTable: RNG-backed generation
// ---------------------------------------------------------------------

ConditionTable::ConditionTable(std::vector<ConditionSpec> cond_specs,
                               std::uint64_t seed)
    : ConditionSource(cond_specs.size()), specs(std::move(cond_specs)),
      rng(seed)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &s = specs[i];
        if (s.kind == ConditionSpec::Kind::Correlated) {
            panicIfNot(s.srcs[0] != invalidCond && s.srcs[0] < specs.size(),
                       "correlated condition has invalid source 0");
            panicIfNot(s.fn == ConditionSpec::Fn::Copy ||
                       s.fn == ConditionSpec::Fn::NotCopy ||
                       (s.srcs[1] != invalidCond && s.srcs[1] < specs.size()),
                       "two-input correlated condition missing source 1");
        }
    }
}

void
ConditionTable::recordInto(std::vector<ConditionStream> *streams)
{
    panicIfNot(streams == nullptr || streams->size() == specs.size(),
               "condition recording streams sized for a different program");
    rec = streams;
}

void
ConditionTable::checkCursor(CondId id, std::uint32_t pos) const
{
    panicIfNot(cursorFits(specs[id], pos),
               "condition checkpoint cursor out of range");
}

// ---------------------------------------------------------------------
// ConditionReplay: recorded-stream consumption
// ---------------------------------------------------------------------

ConditionReplay::ConditionReplay(const std::vector<ConditionStream> &strms)
    : ConditionSource(strms.size()), streams(&strms)
{
    for (const ConditionStream &s : *streams) {
        panicIfNot(s.words.size() == (s.length + 63) / 64,
                   "trace condition stream words/length mismatch");
    }
}

void
ConditionReplay::checkCursor(CondId id, std::uint32_t pos) const
{
    panicIfNot(cursorFits((*streams)[id], pos),
               "condition checkpoint cursor past the recorded stream");
}

} // namespace program
} // namespace pp
