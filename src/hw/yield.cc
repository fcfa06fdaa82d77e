#include "yield.hh"

#include <cmath>

#include "common/logging.hh"

namespace ouro
{

double
murphyYield(const YieldParams &params)
{
    const double ad0 = params.coreAreaCm2 * params.defectDensityPerCm2;
    ouroAssert(ad0 > 0.0, "murphyYield: non-positive A*D0");
    const double term = (1.0 - std::exp(-ad0)) / ad0;
    return term * term;
}

double
coreDefectProbability(const YieldParams &params)
{
    return 1.0 - murphyYield(params);
}

DefectMap::DefectMap(const WaferGeometry &geom)
    : geom_(geom), flags_(geom.numCores(), false)
{
}

DefectMap::DefectMap(const WaferGeometry &geom, const YieldParams &params,
                     Rng &rng)
    : geom_(geom), flags_(geom.numCores(), false)
{
    const double p = coreDefectProbability(params);
    for (std::uint64_t i = 0; i < flags_.size(); ++i) {
        if (rng.bernoulli(p)) {
            flags_[i] = true;
            ++numDefects_;
        }
    }
}

void
DefectMap::inject(CoreCoord c)
{
    const auto idx = geom_.coreIndex(c);
    if (!flags_[idx]) {
        flags_[idx] = true;
        ++numDefects_;
    }
}

} // namespace ouro
