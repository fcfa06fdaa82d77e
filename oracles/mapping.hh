/**
 * @file
 * The dense Eq. 1 reference of the mapping problem (paper Section
 * 4.3.1) and the exhaustive ExactMapper built on it: the oracles the
 * sparse cost engine (MappingProblem::assignmentCost / moveDelta /
 * swapDelta) and the annealer are tested against. Tests and benches
 * link them (the ouro_oracles target); the simulator library never
 * calls them.
 *
 * Everything here is written from the problem's public view alone -
 * layers(), tiles(), candidates(), geometry() and costInter() - and
 * prices each tile pair through the geometry directly: Manhattan
 * distance, times CostInter when the two cores sit on different dies.
 * It shares no flow list or slot array with the engine, so a fault in
 * either shows up as a mismatch. Each sum visits pairs in ascending
 * tile order and keeps the ((dist * bytes) * penalty) association of
 * every term; the engine's sums must equal these BIT for bit.
 */

#ifndef OURO_ORACLES_MAPPING_HH
#define OURO_ORACLES_MAPPING_HH

#include <cstdint>

#include "mapping/mappers.hh"
#include "mapping/problem.hh"

namespace ouro
{

/** Dense O(T^2) Eq. 1 cost of a full assignment (assignment[t] is an
 *  index into candidates() for tile t). */
double assignmentCostDense(const MappingProblem &problem,
                           const Assignment &assignment);

/** Dense O(T) cost delta of moving tile @p t to candidate
 *  @p new_slot, other tiles unchanged. */
double moveDeltaDense(const MappingProblem &problem,
                      const Assignment &assignment, std::size_t t,
                      std::uint32_t new_slot);

/** Dense O(T) cost delta of swapping the cores of tiles @p t1 and
 *  @p t2, including the always-zero (t1, t2) correction term. */
double swapDeltaDense(const MappingProblem &problem,
                      const Assignment &assignment, std::size_t t1,
                      std::size_t t2);

/** Dense O(t) cost added by placing tile @p t on candidate @p slot
 *  given tiles 0..t-1 placed per @p assignment (tiles >= t ignored):
 *  ExactMapper's branch-and-bound partial cost. */
double partialCostDense(const MappingProblem &problem,
                        const Assignment &assignment, std::size_t t,
                        std::uint32_t slot);

/** Exhaustive branch-and-bound; only for small instances (<= ~10). */
class ExactMapper
{
  public:
    /** @param max_tiles refuse larger instances (cost explodes). */
    explicit ExactMapper(std::uint32_t max_tiles = 10);

    Assignment solve(const MappingProblem &problem) const;

  private:
    std::uint32_t maxTiles_;
};

} // namespace ouro

#endif // OURO_ORACLES_MAPPING_HH
