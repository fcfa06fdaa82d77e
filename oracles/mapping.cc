#include "oracles/mapping.hh"

#include <limits>
#include <vector>

#include "common/logging.hh"

namespace ouro
{

namespace
{

double
penalty(const MappingProblem &problem, CoreCoord a, CoreCoord b)
{
    return problem.geometry().sameDie(a, b) ? 1.0 : problem.costInter();
}

/** Pairwise cost between two placed tiles (the Q entries of Eq. 1). */
double
pairCost(const MappingProblem &problem, const Tile &a, CoreCoord ca,
         const Tile &b, CoreCoord cb)
{
    const double dist = problem.geometry().manhattan(ca, cb);
    if (dist == 0.0)
        return 0.0;
    const double pen = penalty(problem, ca, cb);
    double cost = 0.0;

    const LayerSpec &la = problem.layers()[a.layer];
    const LayerSpec &lb = problem.layers()[b.layer];

    // Inter-layer activation flow: a's output part overlaps b's input
    // part in channel space. Only the final input split of a (the
    // reducer, which owns the complete output slice) forwards
    // activations.
    if (a.layer + 1 == b.layer && a.inSplit == la.inSplits - 1) {
        const std::uint64_t bytes = MappingProblem::overlap(
                la.outPartLo(a.outSplit), la.outPartHi(a.outSplit),
                lb.inPartLo(b.inSplit), lb.inPartHi(b.inSplit));
        cost += dist * static_cast<double>(bytes) * pen;
    }
    if (b.layer + 1 == a.layer && b.inSplit == lb.inSplits - 1) {
        const std::uint64_t bytes = MappingProblem::overlap(
                lb.outPartLo(b.outSplit), lb.outPartHi(b.outSplit),
                la.inPartLo(a.inSplit), la.inPartHi(a.inSplit));
        cost += dist * static_cast<double>(bytes) * pen;
    }

    if (a.layer == b.layer) {
        const LayerSpec &layer = la;
        // Intra-layer reduction: non-final input splits stream 32-bit
        // partial sums to the final split of the same output part.
        if (a.outSplit == b.outSplit) {
            const bool a_sends = a.inSplit != layer.inSplits - 1 &&
                                 b.inSplit == layer.inSplits - 1;
            const bool b_sends = b.inSplit != layer.inSplits - 1 &&
                                 a.inSplit == layer.inSplits - 1;
            if (a_sends || b_sends) {
                cost += dist * static_cast<double>(
                        layer.reductionVolume(a.outSplit)) * pen;
            }
        }
        // Gather between reducer tiles of different output parts.
        if (a.outSplit != b.outSplit &&
            a.inSplit == layer.inSplits - 1 &&
            b.inSplit == layer.inSplits - 1) {
            cost += dist * static_cast<double>(
                    layer.gatherVolume(a.outSplit)) * pen;
        }
    }
    return cost;
}

} // namespace

double
assignmentCostDense(const MappingProblem &problem,
                    const Assignment &assignment)
{
    const auto &tiles = problem.tiles();
    const auto &cands = problem.candidates();
    ouroAssert(assignment.size() == tiles.size(),
               "assignmentCostDense: wrong assignment size");
    double total = 0.0;
    for (std::size_t a = 0; a < tiles.size(); ++a) {
        const CoreCoord ca = cands[assignment[a]];
        for (std::size_t b = a + 1; b < tiles.size(); ++b) {
            total += pairCost(problem, tiles[a], ca, tiles[b],
                              cands[assignment[b]]);
        }
    }
    return total;
}

double
moveDeltaDense(const MappingProblem &problem,
               const Assignment &assignment, std::size_t t,
               std::uint32_t new_slot)
{
    const auto &tiles = problem.tiles();
    const auto &cands = problem.candidates();
    ouroAssert(t < tiles.size(), "moveDeltaDense: bad tile index");
    const CoreCoord old_core = cands[assignment[t]];
    const CoreCoord new_core = cands[new_slot];
    double delta = 0.0;
    for (std::size_t b = 0; b < tiles.size(); ++b) {
        if (b == t)
            continue;
        const CoreCoord cb = cands[assignment[b]];
        delta += pairCost(problem, tiles[t], new_core, tiles[b], cb) -
                 pairCost(problem, tiles[t], old_core, tiles[b], cb);
    }
    return delta;
}

double
swapDeltaDense(const MappingProblem &problem,
               const Assignment &assignment, std::size_t t1,
               std::size_t t2)
{
    const auto &tiles = problem.tiles();
    const auto &cands = problem.candidates();
    ouroAssert(t1 < tiles.size() && t2 < tiles.size() && t1 != t2,
               "swapDeltaDense: bad tile pair");
    const CoreCoord c1 = cands[assignment[t1]];
    const CoreCoord c2 = cands[assignment[t2]];
    double delta = 0.0;
    for (std::size_t b = 0; b < tiles.size(); ++b) {
        if (b == t1 || b == t2)
            continue;
        const CoreCoord cb = cands[assignment[b]];
        delta += pairCost(problem, tiles[t1], c2, tiles[b], cb)
               - pairCost(problem, tiles[t1], c1, tiles[b], cb)
               + pairCost(problem, tiles[t2], c1, tiles[b], cb)
               - pairCost(problem, tiles[t2], c2, tiles[b], cb);
    }
    delta += pairCost(problem, tiles[t1], c2, tiles[t2], c1) -
             pairCost(problem, tiles[t1], c1, tiles[t2], c2);
    return delta;
}

double
partialCostDense(const MappingProblem &problem,
                 const Assignment &assignment, std::size_t t,
                 std::uint32_t slot)
{
    const auto &tiles = problem.tiles();
    const auto &cands = problem.candidates();
    ouroAssert(t < tiles.size(), "partialCostDense: bad tile index");
    const CoreCoord ct = cands[slot];
    double add = 0.0;
    for (std::size_t b = 0; b < t; ++b)
        add += pairCost(problem, tiles[t], ct, tiles[b],
                        cands[assignment[b]]);
    return add;
}

ExactMapper::ExactMapper(std::uint32_t max_tiles)
    : maxTiles_(max_tiles)
{
}

Assignment
ExactMapper::solve(const MappingProblem &problem) const
{
    const auto &tiles = problem.tiles();
    ouroAssert(tiles.size() <= maxTiles_,
               "ExactMapper: instance too large (", tiles.size(),
               " tiles)");
    std::vector<std::uint32_t> slots;
    for (std::size_t r = 0; r < problem.candidates().size(); ++r) {
        if (problem.candidateUsable(r))
            slots.push_back(static_cast<std::uint32_t>(r));
    }

    Assignment current(tiles.size(), 0);
    Assignment best;
    double best_cost = std::numeric_limits<double>::infinity();
    std::vector<bool> used(problem.candidates().size(), false);

    // Depth-first branch and bound with partial-cost pruning (all
    // pair costs are non-negative, so the partial sum lower-bounds).
    auto recurse = [&](auto &&self, std::size_t t,
                       double partial) -> void {
        if (partial >= best_cost)
            return;
        if (t == tiles.size()) {
            best_cost = partial;
            best = current;
            return;
        }
        for (const auto slot : slots) {
            if (used[slot])
                continue;
            const double add =
                partialCostDense(problem, current, t, slot);
            used[slot] = true;
            current[t] = slot;
            self(self, t + 1, partial + add);
            used[slot] = false;
        }
    };
    recurse(recurse, 0, 0.0);
    ouroAssert(!best.empty(), "ExactMapper: no feasible assignment");
    return best;
}

} // namespace ouro
