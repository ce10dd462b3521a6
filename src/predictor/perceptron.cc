#include "predictor/perceptron.hh"

#include <emmintrin.h>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace pp
{
namespace predictor
{

namespace
{

/**
 * Spread the 64 bits of @p bits over four 16-byte lanes, one byte per
 * bit in bit order: 0xFF where the bit is clear, 0x00 where it is set.
 */
inline void
clearBytes(std::uint64_t bits, __m128i lanes[4])
{
    const __m128i b = _mm_cvtsi64_si128(static_cast<long long>(bits));
    const __m128i b2 = _mm_unpacklo_epi8(b, b);    // byte i twice
    const __m128i lo = _mm_unpacklo_epi16(b2, b2); // bytes 0-3, 4 each
    const __m128i hi = _mm_unpackhi_epi16(b2, b2); // bytes 4-7, 4 each
    const __m128i spread[4] = {
        _mm_unpacklo_epi32(lo, lo), _mm_unpackhi_epi32(lo, lo),
        _mm_unpacklo_epi32(hi, hi), _mm_unpackhi_epi32(hi, hi)};
    // Byte j of every eight keeps bit j of the byte copied into it.
    const __m128i select =
        _mm_set1_epi64x(static_cast<long long>(0x8040201008040201ull));
    for (int k = 0; k < 4; ++k)
        lanes[k] = _mm_cmpeq_epi8(_mm_and_si128(spread[k], select),
                                  _mm_setzero_si128());
}

/** @p x with its bytes negated where @p neg is 0xFF. */
inline __m128i
negateWhere(__m128i x, __m128i neg)
{
    return _mm_sub_epi8(_mm_xor_si128(x, neg), neg);
}

} // namespace

PerceptronTable::PerceptronTable(unsigned num_entries, unsigned global_bits,
                                 unsigned local_bits, bool no_alias)
    : entries(num_entries), globalBits(global_bits), localBits(local_bits),
      noAlias(no_alias)
{
    panicIfNot(rowWeights() <= kRowBytes,
               "perceptron rows hold at most 64 weights"
               " (1 + global + local history bits)");
    rows.assign(entries, Row{});
    for (unsigned i = 0; i < rowWeights(); ++i)
        weightBytes[i] = 1;
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
        rows.emplace_back();
        ++entries;
    }
    aliasFreeIndex.emplace(key, r);
    return r;
}

std::uint64_t
PerceptronTable::signMask(std::uint64_t ghist, std::uint64_t lhist) const
{
    // Local bits past the row's last weight land on its zero padding.
    // Two shifts: 1 + globalBits is 64 when a row is all bias and global.
    return 1 | (ghist & mask(globalBits)) << 1 | lhist << globalBits << 1;
}

std::int32_t
PerceptronTable::output(std::uint32_t r, std::uint64_t ghist,
                        std::uint64_t lhist) const
{
    __m128i neg[4];
    clearBytes(signMask(ghist, lhist), neg);
    const auto *w = reinterpret_cast<const __m128i *>(rows[r].w);
    // psadbw sums unsigned bytes: flipping bit 7 reads each signed
    // weight v as v + 128, which the return takes back out.
    const __m128i flip = _mm_set1_epi8(-128);
    __m128i sum = _mm_setzero_si128();
    for (int k = 0; k < 4; ++k) {
        const __m128i v = negateWhere(_mm_load_si128(w + k), neg[k]);
        sum = _mm_add_epi64(sum, _mm_sad_epu8(_mm_xor_si128(v, flip),
                                              _mm_setzero_si128()));
    }
    sum = _mm_add_epi64(sum, _mm_unpackhi_epi64(sum, sum));
    return static_cast<std::int32_t>(_mm_cvtsi128_si64(sum)) -
        static_cast<std::int32_t>(kRowBytes * 128);
}

void
PerceptronTable::train(std::uint32_t r, std::uint64_t ghist,
                       std::uint64_t lhist, bool taken)
{
    const std::uint64_t signs = signMask(ghist, lhist);
    __m128i down[4];
    clearBytes(taken ? signs : ~signs, down);
    auto *w = reinterpret_cast<__m128i *>(rows[r].w);
    const auto *step = reinterpret_cast<const __m128i *>(weightBytes);
    const __m128i minus128 = _mm_set1_epi8(-128);
    for (int k = 0; k < 4; ++k) {
        __m128i v = _mm_adds_epi8(_mm_load_si128(w + k),
                                  negateWhere(_mm_load_si128(step + k),
                                              down[k]));
        // Saturation stops at -128; weights stay within ±127.
        v = _mm_sub_epi8(v, _mm_cmpeq_epi8(v, minus128));
        _mm_store_si128(w + k, v);
    }
}

std::uint64_t
PerceptronTable::storageBytes() const
{
    return static_cast<std::uint64_t>(entries) * rowWeights();
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
