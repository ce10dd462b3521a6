/**
 * @file
 * Conventional second-level perceptron branch predictor (Jiménez & Lin,
 * HPCA'01) with 30-bit global and 10-bit local history, sized to the
 * paper's 148KB budget, 3-cycle access.
 */

#ifndef PP_PREDICTOR_PERCEPTRON_HH
#define PP_PREDICTOR_PERCEPTRON_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "predictor/direction_predictor.hh"

namespace pp
{
namespace predictor
{

/** Perceptron predictor configuration (defaults = Table 1, 148KB). */
struct PerceptronConfig
{
    /**
     * Perceptron vector table rows. Each row holds bias + 30 global + 10
     * local 8-bit weights = 41 bytes; 3696 rows ~= 148KB.
     */
    unsigned tableEntries = 3696;
    unsigned globalBits = 30;
    unsigned localBits = 10;
    unsigned lhtEntries = 2048;

    /** Training threshold; 1.93 * 41 + 14 per Jiménez & Lin. */
    std::int32_t threshold = 93;

    /** Idealized: tag tables by full PC (no alias conflicts). */
    bool noAlias = false;

    /** Idealized: shift actual outcomes into history at predict time. */
    bool perfectHistory = false;

    Cycle accessLatency = 3;
};

/**
 * Shared perceptron machinery: a weight table plus dot-product/train
 * helpers. Used by both the conventional predictor and the predicate
 * predictor (the paper's point is that the *same* structure serves both).
 */
class PerceptronTable
{
  public:
    /** Panics unless a row's 1 + global + local weights fit in 64. */
    PerceptronTable(unsigned entries, unsigned global_bits,
                    unsigned local_bits, bool no_alias);

    /** Number of weights per row (bias + global + local). */
    unsigned rowWeights() const { return 1 + globalBits + localBits; }

    /**
     * Resolve the row for @p key (a hashed index in aliased mode, the
     * full unique key in no-alias mode).
     */
    std::uint32_t row(std::uint64_t key);

    /**
     * Dot product of row @p r with the given histories: the bias plus
     * each history weight, negated where its history bit is clear.
     */
    std::int32_t output(std::uint32_t r, std::uint64_t ghist,
                        std::uint64_t lhist) const;

    /**
     * Standard perceptron training step: the bias moves toward
     * @p taken, each history weight up where its bit agrees with
     * @p taken and down where it does not, saturating at ±127.
     */
    void train(std::uint32_t r, std::uint64_t ghist, std::uint64_t lhist,
               bool taken);

    /** Modeled bytes: one byte per weight, padding excluded. */
    std::uint64_t storageBytes() const;

  private:
    /** Bytes a row occupies in memory. */
    static constexpr unsigned kRowBytes = 64;

    /**
     * One row: its rowWeights() weights, then zero padding. Both
     * operations run over the whole row as four 16-byte lanes; a zero
     * weight adds nothing to a dot product and train() never moves it.
     * Aligned to 16 for the lane loads, not to 64: over-aligned vectors
     * take glibc's memalign path, whose fragmentation raised the
     * threaded replay tier's peak RSS by about 20%.
     */
    struct alignas(16) Row
    {
        std::int8_t w[kRowBytes] = {};
    };

    /** Bit i set where weight i counts positively in output(). */
    std::uint64_t signMask(std::uint64_t ghist, std::uint64_t lhist) const;

    unsigned entries;
    unsigned globalBits;
    unsigned localBits;
    bool noAlias;

    std::vector<Row> rows;

    /** 1 in each weight byte of a row, 0 in its padding. */
    alignas(16) std::int8_t weightBytes[kRowBytes] = {};

    std::unordered_map<std::uint64_t, std::uint32_t> aliasFreeIndex;
};

/** The conventional branch perceptron (branch-PC indexed). */
class PerceptronPredictor : public DirectionPredictor
{
  public:
    explicit PerceptronPredictor(
        const PerceptronConfig &config = PerceptronConfig());

    bool predict(const BranchContext &ctx, PredState &st) override;
    void resolve(const BranchContext &ctx, const PredState &st,
                 bool taken) override;
    void squash(const PredState &st) override;
    void correctHistory(const PredState &st, bool taken) override;
    void reforecast(PredState &st, bool new_dir) override;

    Cycle latency() const override { return cfg.accessLatency; }
    std::uint64_t storageBytes() const override;

    /** Current speculative global history (tests). */
    std::uint64_t history() const { return ghr; }

  private:
    std::uint64_t &localEntry(Addr pc, std::uint32_t &index_out);

    PerceptronConfig cfg;
    PerceptronTable table;
    std::uint64_t ghr = 0;
    std::vector<std::uint64_t> lht;
    std::unordered_map<std::uint64_t, std::uint64_t> lhtNoAlias;
};

} // namespace predictor
} // namespace pp

#endif // PP_PREDICTOR_PERCEPTRON_HH
