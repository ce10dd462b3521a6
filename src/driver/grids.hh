/**
 * @file
 * The paper's Figure-5 scheme columns, shared by every sweep of that
 * figure (bench_fig5_nonifconv, bench_result_cache and the benchmark
 * ledger) so they all run identical cells by construction.
 */

#ifndef PP_DRIVER_GRIDS_HH
#define PP_DRIVER_GRIDS_HH

#include <vector>

#include "driver/run_matrix.hh"

namespace pp
{
namespace driver
{

/**
 * The Figure-5 scheme columns: realistic conventional vs predicate
 * predictor plus their idealized (no-alias, perfect-history) twins.
 */
std::vector<SchemeAxis> fig5Schemes();

} // namespace driver
} // namespace pp

#endif // PP_DRIVER_GRIDS_HH
