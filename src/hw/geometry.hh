/**
 * @file
 * Physical geometry of the Ouroboros wafer (paper Section 3, Fig. 2).
 *
 * The wafer is a 215 mm x 215 mm monolithic die fabric: 9 rows x 7
 * columns of stitched dies, each die a 13 x 17 grid of CIM cores.
 * Globally that is a 117 x 119 core mesh (13,923 cores). CoreCoord
 * addresses a core by global (row, col); the geometry answers the
 * locality questions the mapper and NoC need: Manhattan distance,
 * same-die tests, die membership, and S-shaped (boustrophedon)
 * die-order enumeration for the pipeline's producer-consumer flow.
 *
 * The per-coordinate queries (coreIndex, contains, dieOf, sameDie,
 * manhattan) are header-inline: the mapper prices every flow, the NoC
 * every route hop and storm resolution every core lookup through
 * them, so they must not hide behind a call.
 */

#ifndef OURO_HW_GEOMETRY_HH
#define OURO_HW_GEOMETRY_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace ouro
{

/** Global core coordinate on the wafer mesh. */
struct CoreCoord
{
    std::uint32_t row = 0;
    std::uint32_t col = 0;

    bool operator==(const CoreCoord &other) const = default;
};

/** Die coordinate on the wafer's die grid. */
struct DieCoord
{
    std::uint32_t row = 0;
    std::uint32_t col = 0;

    bool operator==(const DieCoord &other) const = default;
};

/**
 * Wafer layout constants and coordinate arithmetic. Defaults match the
 * paper; alternate layouts (multi-wafer scaling treats each wafer as
 * its own geometry) are constructible for tests and sweeps.
 */
class WaferGeometry
{
  public:
    /** Paper defaults: 9x7 dies of 13x17 cores. */
    WaferGeometry(std::uint32_t die_rows = 9, std::uint32_t die_cols = 7,
                  std::uint32_t cores_per_die_row = 13,
                  std::uint32_t cores_per_die_col = 17);

    std::uint32_t dieRows() const { return dieRows_; }
    std::uint32_t dieCols() const { return dieCols_; }
    std::uint32_t coresPerDieRow() const { return coresPerDieRow_; }
    std::uint32_t coresPerDieCol() const { return coresPerDieCol_; }

    /** Global mesh extents in cores. */
    std::uint32_t rows() const { return dieRows_ * coresPerDieRow_; }
    std::uint32_t cols() const { return dieCols_ * coresPerDieCol_; }

    /** Total core count. */
    std::uint64_t numCores() const
    {
        return static_cast<std::uint64_t>(rows()) * cols();
    }

    std::uint64_t numDies() const
    {
        return static_cast<std::uint64_t>(dieRows_) * dieCols_;
    }

    /** Flatten / unflatten core coordinates. */
    std::uint64_t coreIndex(CoreCoord c) const
    {
        ouroAssert(contains(c), "coreIndex: coordinate off wafer (",
                   c.row, ",", c.col, ")");
        return static_cast<std::uint64_t>(c.row) * cols() + c.col;
    }
    CoreCoord coreAt(std::uint64_t index) const;

    /** Die containing a core. */
    DieCoord dieOf(CoreCoord c) const
    {
        ouroAssert(contains(c), "dieOf: coordinate off wafer");
        return {c.row / coresPerDieRow_, c.col / coresPerDieCol_};
    }

    bool sameDie(CoreCoord a, CoreCoord b) const
    {
        return dieOf(a) == dieOf(b);
    }

    /** Manhattan hop distance on the global core mesh. */
    std::uint32_t manhattan(CoreCoord a, CoreCoord b) const
    {
        const auto dr = a.row > b.row ? a.row - b.row : b.row - a.row;
        const auto dc = a.col > b.col ? a.col - b.col : b.col - a.col;
        return dr + dc;
    }

    /** Validity check for a coordinate. */
    bool contains(CoreCoord c) const
    {
        return c.row < rows() && c.col < cols();
    }

    /**
     * Cores of the wafer in S-shaped (boustrophedon) order: dies are
     * visited snake-wise row by row (the paper's S-shaped logical
     * routing topology), and within a die cores snake as well. The
     * pipeline mapper walks this order so consecutive stages land on
     * physically adjacent cores.
     */
    std::vector<CoreCoord> sShapedOrder() const;

  private:
    std::uint32_t dieRows_;
    std::uint32_t dieCols_;
    std::uint32_t coresPerDieRow_;
    std::uint32_t coresPerDieCol_;
};

} // namespace ouro

#endif // OURO_HW_GEOMETRY_HH
