#include "driver/grids.hh"

namespace pp
{
namespace driver
{

std::vector<SchemeAxis>
fig5Schemes()
{
    std::vector<SchemeAxis> out(4);
    out[0].name = "conventional";
    out[0].scheme.scheme = core::PredictionScheme::Conventional;
    out[1].name = "predicate";
    out[1].scheme.scheme = core::PredictionScheme::PredicatePredictor;
    out[2].name = "ideal-conv";
    out[2].scheme.scheme = core::PredictionScheme::Conventional;
    out[2].scheme.idealNoAlias = true;
    out[2].scheme.idealPerfectHistory = true;
    out[3].name = "ideal-pred";
    out[3].scheme.scheme = core::PredictionScheme::PredicatePredictor;
    out[3].scheme.idealNoAlias = true;
    out[3].scheme.idealPerfectHistory = true;
    return out;
}

} // namespace driver
} // namespace pp
