#include "predictor/perceptron.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace pp
{
namespace predictor
{

PerceptronTable::PerceptronTable(unsigned num_entries, unsigned global_bits,
                                 unsigned local_bits, bool no_alias)
    : entries(num_entries), globalBits(global_bits), localBits(local_bits),
      noAlias(no_alias)
{
    weights.assign(static_cast<std::size_t>(entries) * rowWeights(), 0);
    rowSums.assign(entries, 0);
}

std::uint32_t
PerceptronTable::row(std::uint64_t key)
{
    if (!noAlias) {
        // Callers that pre-reduced the key skip the 64-bit division.
        return static_cast<std::uint32_t>(key < entries ? key
                                                        : key % entries);
    }
    auto it = aliasFreeIndex.find(key);
    if (it != aliasFreeIndex.end())
        return it->second;
    // Grow the table: idealized mode gives every key a private row.
    const auto r = static_cast<std::uint32_t>(aliasFreeIndex.size());
    if (r >= entries) {
        weights.resize(weights.size() + rowWeights(), 0);
        rowSums.push_back(0);
        ++entries;
    }
    aliasFreeIndex.emplace(key, r);
    return r;
}

// Cache-line aligned: the two set-bit loops below are ~25 bytes each,
// and either one straddling a 64-byte boundary costs the replay tier
// ~10% of its throughput. The alignment keeps their place in the line
// whatever size the code linked before this function has.
[[gnu::aligned(64)]] std::int32_t
PerceptronTable::output(std::uint32_t r, std::uint64_t ghist,
                        std::uint64_t lhist) const
{
    // Word-at-a-time dot product. With h_i in {+1, -1}:
    //   sum = bias + SUM_set w_i - SUM_clear w_i
    //       = bias + 2 * SUM_set w_i - rowSums[r]
    // so only the *set* history bits are visited, straight off the
    // history word, instead of one branchy loop iteration per bit.
    const std::int8_t *w = rowPtr(r);
    std::int32_t set_sum = 0;
    std::uint64_t g = ghist & mask(globalBits);
    while (g) {
        set_sum += w[1 + countTrailingZeros(g)];
        g &= g - 1;
    }
    std::uint64_t l = lhist & mask(localBits);
    while (l) {
        set_sum += w[1 + globalBits + countTrailingZeros(l)];
        l &= l - 1;
    }
    return w[0] + 2 * set_sum - rowSums[r];
}

namespace
{

/** Saturating ±127 bump; returns the applied delta for sum upkeep. */
inline std::int32_t
bump(std::int8_t &w, bool up)
{
    if (up) {
        if (w < 127) {
            ++w;
            return 1;
        }
    } else if (w > -127) {
        --w;
        return -1;
    }
    return 0;
}

} // namespace

void
PerceptronTable::train(std::uint32_t r, std::uint64_t ghist,
                       std::uint64_t lhist, bool taken)
{
    std::int8_t *w = rowPtr(r);
    bump(w[0], taken); // bias is outside rowSums
    std::int32_t delta = 0;
    for (unsigned i = 0; i < globalBits; ++i)
        delta += bump(w[1 + i], ((ghist >> i) & 1) == taken);
    for (unsigned j = 0; j < localBits; ++j)
        delta += bump(w[1 + globalBits + j], ((lhist >> j) & 1) == taken);
    rowSums[r] += delta;
}

std::uint64_t
PerceptronTable::storageBytes() const
{
    return weights.size();
}

PerceptronPredictor::PerceptronPredictor(const PerceptronConfig &config)
    : cfg(config),
      table(config.tableEntries, config.globalBits, config.localBits,
            config.noAlias)
{
    panicIfNot(isPowerOfTwo(cfg.lhtEntries), "LHT entries must be 2^n");
    lht.assign(cfg.lhtEntries, 0);
}

std::uint64_t &
PerceptronPredictor::localEntry(Addr pc, std::uint32_t &index_out)
{
    if (cfg.noAlias) {
        index_out = 0;
        return lhtNoAlias[pc];
    }
    index_out = static_cast<std::uint32_t>((pc / 4) & (cfg.lhtEntries - 1));
    return lht[index_out];
}

bool
PerceptronPredictor::predict(const BranchContext &ctx, PredState &st)
{
    std::uint32_t lht_idx = 0;
    std::uint64_t &lentry = localEntry(ctx.pc, lht_idx);

    st.valid = true;
    st.pc = ctx.pc;
    st.ghrCkpt = ghr;
    st.localCkpt = lentry;
    st.lhtIndex = lht_idx;
    st.tableIndex = table.row(cfg.noAlias ? ctx.pc
                                          : mix64(ctx.pc / 4));
    st.output = table.output(st.tableIndex, ghr, lentry);
    st.predTaken = st.output >= 0;

    const bool bit = cfg.perfectHistory
        ? ctx.oracleOutcome.value_or(st.predTaken)
        : st.predTaken;
    ghr = ((ghr << 1) | (bit ? 1 : 0)) & mask(cfg.globalBits);
    lentry = ((lentry << 1) | (bit ? 1 : 0)) & mask(cfg.localBits);
    return st.predTaken;
}

void
PerceptronPredictor::resolve(const BranchContext &ctx, const PredState &st,
                             bool taken)
{
    (void)ctx;
    if (!st.valid)
        return;
    const std::int32_t out = st.output;
    if ((out >= 0) != taken || (out < 0 ? -out : out) <= cfg.threshold)
        table.train(st.tableIndex, st.ghrCkpt, st.localCkpt, taken);
}

void
PerceptronPredictor::squash(const PredState &st)
{
    if (!st.valid)
        return;
    ghr = st.ghrCkpt;
    if (cfg.noAlias)
        lhtNoAlias[st.pc] = st.localCkpt;
    else
        lht[st.lhtIndex] = st.localCkpt;
}

void
PerceptronPredictor::correctHistory(const PredState &st, bool taken)
{
    if (!st.valid)
        return;
    ghr = ((st.ghrCkpt << 1) | (taken ? 1 : 0)) & mask(cfg.globalBits);
    const std::uint64_t fixed =
        ((st.localCkpt << 1) | (taken ? 1 : 0)) & mask(cfg.localBits);
    if (cfg.noAlias)
        lhtNoAlias[st.pc] = fixed;
    else
        lht[st.lhtIndex] = fixed;
}

void
PerceptronPredictor::reforecast(PredState &st, bool new_dir)
{
    if (!st.valid)
        return;
    if (!cfg.perfectHistory) {
        ghr = ((st.ghrCkpt << 1) | (new_dir ? 1 : 0)) &
            mask(cfg.globalBits);
        const std::uint64_t fixed =
            ((st.localCkpt << 1) | (new_dir ? 1 : 0)) & mask(cfg.localBits);
        if (cfg.noAlias)
            lhtNoAlias[st.pc] = fixed;
        else
            lht[st.lhtIndex] = fixed;
    }
    st.predTaken = new_dir;
}

std::uint64_t
PerceptronPredictor::storageBytes() const
{
    return table.storageBytes() + (cfg.lhtEntries * cfg.localBits) / 8;
}

} // namespace predictor
} // namespace pp
