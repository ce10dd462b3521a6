/**
 * @file
 * Saturating counter used throughout the predictors.
 */

#ifndef PP_COMMON_SAT_COUNTER_HH
#define PP_COMMON_SAT_COUNTER_HH

#include <cstdint>

#include "common/logging.hh"

namespace pp
{

/**
 * An n-bit unsigned saturating counter.
 *
 * Used for PHT entries (2-bit) and for the predicate-prediction confidence
 * estimator (the paper's "saturated counter ... incremented with every
 * correct prediction and zeroed if a misprediction occurs"). Maximum and
 * count take one byte each, so a table of counters costs two bytes an
 * entry.
 */
class SatCounter
{
  public:
    /**
     * @param num_bits width of the counter (1..8)
     * @param initial initial count (at most 2^num_bits - 1)
     */
    explicit SatCounter(unsigned num_bits = 2, unsigned initial = 0)
        : maxVal(maxForWidth(num_bits)),
          count(static_cast<std::uint8_t>(initial))
    {
        panicIfNot(initial <= maxVal,
                   "saturating counter initial value exceeds its maximum");
    }

    /** Increment, saturating at the maximum. */
    void
    increment()
    {
        if (count < maxVal)
            ++count;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (count > 0)
            --count;
    }

    /** Reset the counter to zero. */
    void reset() { count = 0; }

    /** Set to the maximum value. */
    void saturate() { count = maxVal; }

    /** Current count. */
    unsigned value() const { return count; }

    /** Maximum representable count. */
    unsigned max() const { return maxVal; }

    /** True iff the counter is saturated at its maximum. */
    bool isSaturated() const { return count == maxVal; }

    /** MSB view: true for the "taken" half of the range. */
    bool taken() const { return count > maxVal / 2; }

  private:
    /** 2^@p num_bits - 1, checked before it is computed. */
    static std::uint8_t
    maxForWidth(unsigned num_bits)
    {
        panicIfNot(num_bits >= 1 && num_bits <= 8,
                   "saturating counter width must be 1..8 bits");
        return static_cast<std::uint8_t>((1u << num_bits) - 1);
    }

    std::uint8_t maxVal;
    std::uint8_t count;
};

} // namespace pp

#endif // PP_COMMON_SAT_COUNTER_HH
