/**
 * @file
 * Murphy yield model and defect-map generation (paper Section 5).
 *
 * Per-core yield follows Murphy's model
 *   Y = ((1 - e^{-A D0}) / (A D0))^2
 * with D0 = 0.09 defects/cm^2 and A = 2.97 mm^2. Defective core
 * locations are drawn pseudo-randomly from a seeded Rng, exactly as
 * the paper "randomly generates" them.
 */

#ifndef OURO_HW_YIELD_HH
#define OURO_HW_YIELD_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "hw/geometry.hh"
#include "hw/params.hh"

namespace ouro
{

/** Murphy per-core yield for the given parameters. */
double murphyYield(const YieldParams &params);

/** Probability that a single core is defective (1 - yield). */
double coreDefectProbability(const YieldParams &params);

/**
 * Boolean defect map over the wafer: defects[i] is true when core i
 * (by WaferGeometry::coreIndex) is unusable.
 */
class DefectMap
{
  public:
    /** All-good map. */
    explicit DefectMap(const WaferGeometry &geom);

    /** Seeded random map with the Murphy defect probability. */
    DefectMap(const WaferGeometry &geom, const YieldParams &params,
              Rng &rng);

    /** Header-inline: the NoC router asks once per route hop. */
    bool defective(CoreCoord c) const
    {
        return flags_[geom_.coreIndex(c)];
    }
    bool defective(std::uint64_t index) const
    {
        ouroAssert(index < flags_.size(),
                   "defective: index out of range");
        return flags_[index];
    }

    /** Force a specific core defective (fault-injection tests). */
    void inject(CoreCoord c);

    std::uint64_t numDefects() const { return numDefects_; }
    std::uint64_t numCores() const { return flags_.size(); }

    const WaferGeometry &geometry() const { return geom_; }

  private:
    WaferGeometry geom_;
    std::vector<bool> flags_;
    std::uint64_t numDefects_ = 0;
};

} // namespace ouro

#endif // OURO_HW_YIELD_HH
