#include "mappers.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace ouro
{

namespace
{

/** Usable candidate slots of a problem, in region order. */
std::vector<std::uint32_t>
usableSlots(const MappingProblem &problem)
{
    std::vector<std::uint32_t> slots;
    for (std::size_t r = 0; r < problem.candidates().size(); ++r) {
        if (problem.candidateUsable(r))
            slots.push_back(static_cast<std::uint32_t>(r));
    }
    return slots;
}

} // namespace

Assignment
GreedyMapper::solve(const MappingProblem &problem) const
{
    // Tiles are generated layer-major, output-part-major; walking the
    // candidate region in order therefore keeps each layer's reduction
    // chains contiguous and consecutive layers adjacent - the
    // candidate list itself is expected to be in S-shaped order.
    const auto slots = usableSlots(problem);
    const auto &tiles = problem.tiles();
    ouroAssert(slots.size() >= tiles.size(),
               "GreedyMapper: not enough usable cores");
    Assignment assignment(tiles.size());
    for (std::size_t t = 0; t < tiles.size(); ++t)
        assignment[t] = slots[t];
    return assignment;
}

AnnealingMapper::AnnealingMapper(Options opts)
    : opts_(opts)
{
}

Assignment
AnnealingMapper::solve(const MappingProblem &problem) const
{
    if (opts_.restarts <= 1)
        return annealOnce(problem, opts_.seed).first;

    // Parallel multi-restart: every restart is an independent chain
    // with its own deterministically derived seed writing its own
    // result slot, so the sweep is bit-identical serial or parallel.
    std::vector<std::pair<Assignment, double>> chains(opts_.restarts);
    parallelFor(chains.size(), [&](std::size_t r) {
        // Restart 0 keeps the caller's seed (restarts=1 equivalence);
        // the rest take well-separated streams off the golden-ratio
        // increment so chains never correlate.
        const std::uint64_t seed =
            r == 0 ? opts_.seed
                   : opts_.seed +
                         0x9E3779B97F4A7C15ULL *
                             static_cast<std::uint64_t>(r);
        chains[r] = annealOnce(problem, seed);
    });
    std::size_t best = 0;
    for (std::size_t r = 1; r < chains.size(); ++r) {
        if (chains[r].second < chains[best].second)
            best = r;
    }
    return std::move(chains[best].first);
}

std::pair<Assignment, double>
AnnealingMapper::annealOnce(const MappingProblem &problem,
                            std::uint64_t seed) const
{
    Assignment current = GreedyMapper{}.solve(problem);
    const auto &tiles = problem.tiles();
    if (tiles.size() <= 1)
        return {current, problem.assignmentCost(current)};

    const auto slots = usableSlots(problem);
    // Occupancy map: slot -> tile index or -1.
    std::vector<std::int64_t> occupant(problem.candidates().size(), -1);
    for (std::size_t t = 0; t < current.size(); ++t)
        occupant[current[t]] = static_cast<std::int64_t>(t);

    double cost = problem.assignmentCost(current);
    Assignment best = current;
    double best_cost = cost;

    Rng rng(seed);

    // Calibrate the starting temperature from a random-move sample
    // so acceptance starts near 80%.
    double sum_abs = 0.0;
    const int probes = 64;
    for (int p = 0; p < probes; ++p) {
        const auto t = rng.uniformInt(0, tiles.size() - 1);
        const auto s = slots[rng.uniformInt(0, slots.size() - 1)];
        if (s == current[t])
            continue;
        if (occupant[s] < 0)
            sum_abs += std::abs(problem.moveDelta(current, t, s));
    }
    double temperature = std::max(1.0, sum_abs / probes);

    // One proposal per iteration: draw a tile, then a slot. A free
    // slot relocates the tile, an occupied one swaps the two tiles.
    for (std::uint64_t iter = 0; iter < opts_.iterations; ++iter) {
        const auto t1 =
            static_cast<std::size_t>(rng.uniformInt(0,
                                                    tiles.size() - 1));
        const std::uint32_t slot =
            slots[rng.uniformInt(0, slots.size() - 1)];
        if (slot == current[t1])
            continue;

        const std::int64_t other = occupant[slot];
        if (other < 0) {
            // Relocate t1 to a free slot.
            const double delta = problem.moveDelta(current, t1, slot);
            if (delta <= 0.0 ||
                rng.uniform() < std::exp(-delta / temperature)) {
                occupant[current[t1]] = -1;
                current[t1] = slot;
                occupant[slot] = static_cast<std::int64_t>(t1);
                cost += delta;
            }
        } else {
            // Swap t1 and the occupant t2.
            const auto t2 = static_cast<std::size_t>(other);
            const std::uint32_t s1 = current[t1];
            const std::uint32_t s2 = slot;
            const double delta = problem.swapDelta(current, t1, t2);
            if (delta <= 0.0 ||
                rng.uniform() < std::exp(-delta / temperature)) {
                std::swap(current[t1], current[t2]);
                occupant[s1] = static_cast<std::int64_t>(t2);
                occupant[s2] = static_cast<std::int64_t>(t1);
                cost += delta;
            }
        }

        if (cost < best_cost) {
            best_cost = cost;
            best = current;
        }
        temperature *= opts_.coolingFactor;
        if (temperature < 1e-9)
            temperature = 1e-9;
    }

    ouroAssert(problem.feasible(best), "AnnealingMapper: infeasible");
    // Exact recompute: the incrementally tracked cost accumulates
    // floating error, and restarts are compared on this value.
    const double exact_cost = problem.assignmentCost(best);
    return {std::move(best), exact_cost};
}

Assignment
SummaMapper::solve(const MappingProblem &problem) const
{
    // Each layer is distributed across the WHOLE region as an
    // independent 2-D grid (SUMMA assigns operands by grid position,
    // oblivious to what the previous layer produced where). We model
    // that by striding each layer's tiles across the full region.
    const auto slots = usableSlots(problem);
    const auto &tiles = problem.tiles();
    ouroAssert(slots.size() >= tiles.size(),
               "SummaMapper: not enough cores");

    Assignment assignment(tiles.size());
    std::vector<bool> used(slots.size(), false);

    std::size_t t = 0;
    for (std::uint32_t l = 0; l < problem.layers().size(); ++l) {
        const auto n = problem.layers()[l].numTiles();
        // Spread the layer's tiles evenly over the region.
        const double stride =
            static_cast<double>(slots.size()) / n;
        for (std::uint32_t k = 0; k < n; ++k, ++t) {
            auto want = static_cast<std::size_t>(k * stride);
            while (used[want % slots.size()])
                ++want;
            used[want % slots.size()] = true;
            assignment[t] = slots[want % slots.size()];
        }
    }
    return assignment;
}

Assignment
WaferLlmMapper::solve(const MappingProblem &problem) const
{
    // Contiguous per-layer strips in raw row-major core order (not the
    // S-shaped locality order): consecutive layers are adjacent but
    // strip interiors ignore the reduce/gather structure.
    const auto &candidates = problem.candidates();
    // Re-sort candidate slots row-major by coordinate.
    std::vector<std::uint32_t> slots = [&] {
        std::vector<std::uint32_t> s;
        for (std::size_t r = 0; r < candidates.size(); ++r) {
            if (problem.candidateUsable(r))
                s.push_back(static_cast<std::uint32_t>(r));
        }
        std::sort(s.begin(), s.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      const CoreCoord ca = candidates[a];
                      const CoreCoord cb = candidates[b];
                      return ca.row != cb.row ? ca.row < cb.row
                                              : ca.col < cb.col;
                  });
        return s;
    }();
    const auto &tiles = problem.tiles();
    ouroAssert(slots.size() >= tiles.size(),
               "WaferLlmMapper: not enough cores");

    // (layer, inSplit, outSplit) -> tile index, built in one pass so
    // the reorder below is O(T) instead of an O(T^2) scan per tile.
    std::vector<std::vector<std::uint32_t>> tile_index(
            problem.layers().size());
    for (std::uint32_t l = 0; l < problem.layers().size(); ++l) {
        tile_index[l].assign(problem.layers()[l].numTiles(),
                             UINT32_MAX);
    }
    for (std::size_t k = 0; k < tiles.size(); ++k) {
        const Tile &tile = tiles[k];
        const LayerSpec &spec = problem.layers()[tile.layer];
        tile_index[tile.layer][tile.inSplit * spec.outSplits +
                               tile.outSplit] =
            static_cast<std::uint32_t>(k);
    }

    // Within a layer, WaferLLM distributes input-split-major (rows of
    // the operand), which separates the reduction partners that our
    // tile order keeps together; reorder accordingly.
    Assignment assignment(tiles.size());
    std::size_t cursor = 0;
    for (std::uint32_t l = 0; l < problem.layers().size(); ++l) {
        const LayerSpec &spec = problem.layers()[l];
        for (std::uint32_t i = 0; i < spec.inSplits; ++i) {
            for (std::uint32_t o = 0; o < spec.outSplits; ++o) {
                const std::uint32_t t =
                    tile_index[l][i * spec.outSplits + o];
                ouroAssert(t != UINT32_MAX,
                           "WaferLlmMapper: tile not found");
                assignment[t] = slots[cursor++];
            }
        }
    }
    return assignment;
}

double
mappingByteHops(const MappingProblem &problem,
                const Assignment &assignment)
{
    // The Eq. 1 objective already *is* sum(bytes x hops x penalty).
    return problem.assignmentCost(assignment);
}

} // namespace ouro
