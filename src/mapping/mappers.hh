/**
 * @file
 * Solvers for the inter-core mapping problem (Section 4.3.1) plus the
 * baseline mapping strategies compared in Fig. 18.
 *
 * The paper models placement as MIQP and solves it offline ("several
 * hours" on a Xeon, Section 6.7). Without a commercial solver we keep
 * the exact objective/constraints and swap the search:
 *   - GreedyMapper: layer-ordered walk of the S-shaped core order -
 *     fast, locality-aware construction;
 *   - AnnealingMapper: simulated annealing (swap/relocate moves with
 *     incremental cost deltas) seeded with the greedy solution;
 *     tests check it against the exhaustive ExactMapper of
 *     oracles/mapping.hh on small instances.
 * Baselines:
 *   - SummaMapper: Cerebras-style SUMMA grids each layer across the
 *     whole region independently (good intra-layer grids, poor
 *     inter-layer locality);
 *   - WaferLlmMapper: WaferLLM-style contiguous row-major strips per
 *     layer (good inter-layer adjacency, unshaped reductions).
 */

#ifndef OURO_MAPPING_MAPPERS_HH
#define OURO_MAPPING_MAPPERS_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "mapping/problem.hh"

namespace ouro
{

/** A solution: tile index -> candidate-core index. */
using Assignment = std::vector<std::uint32_t>;

/** Locality-aware constructive placement (also the SA seed). */
class GreedyMapper
{
  public:
    Assignment solve(const MappingProblem &problem) const;
};

/** Simulated-annealing refinement of the MIQP objective. */
class AnnealingMapper
{
  public:
    struct Options
    {
        std::uint64_t iterations = 20000;
        double coolingFactor = 0.999;
        std::uint64_t seed = 1;

        /**
         * Independent annealing restarts; the lowest-cost result
         * wins (ties: lowest restart index). Restart 0 runs with
         * `seed` exactly - restarts=1 reproduces the single-restart
         * mapper bit for bit - and restart r derives its own
         * deterministic seed from (seed, r). Restarts fan out on
         * the parallel sweep runtime with per-restart result slots,
         * so the chosen mapping is identical however many threads
         * run (including 1) - the PR 1 sweep contract.
         */
        std::uint32_t restarts = 1;
    };

    AnnealingMapper() : AnnealingMapper(Options{}) {}
    explicit AnnealingMapper(Options opts);

    Assignment solve(const MappingProblem &problem) const;

  private:
    /** One annealing chain; returns (assignment, exact cost). */
    std::pair<Assignment, double>
    annealOnce(const MappingProblem &problem,
               std::uint64_t seed) const;

    Options opts_;
};

/** Cerebras-default SUMMA-style layer-independent grid placement. */
class SummaMapper
{
  public:
    Assignment solve(const MappingProblem &problem) const;
};

/** WaferLLM-style contiguous per-layer strips. */
class WaferLlmMapper
{
  public:
    Assignment solve(const MappingProblem &problem) const;
};

/**
 * Per-token communication volume of a placement in byte-hops: the
 * Fig. 18 "normalized transmission volume" metric (die crossings are
 * weighted by CostInter, as in the objective).
 */
double mappingByteHops(const MappingProblem &problem,
                       const Assignment &assignment);

} // namespace ouro

#endif // OURO_MAPPING_MAPPERS_HH
