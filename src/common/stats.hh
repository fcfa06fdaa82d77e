/**
 * @file
 * Energy/time accounting used by every system model in the repository.
 *
 * The paper reports energy in the four categories of its Fig. 1 /
 * Fig. 14 stacked bars: compute, communication, on-chip memory, and
 * off-chip memory. EnergyLedger mirrors exactly that breakdown so a
 * bench binary can print the same stacks the paper plots.
 */

#ifndef OURO_COMMON_STATS_HH
#define OURO_COMMON_STATS_HH

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace ouro
{

/** The four energy categories of the paper's stacked-bar figures. */
enum class EnergyCategory : std::size_t
{
    Compute = 0,
    Communication = 1,
    OnChipMemory = 2,
    OffChipMemory = 3,
};

inline constexpr std::size_t kNumEnergyCategories = 4;

/** Printable name of an energy category. */
const char *energyCategoryName(EnergyCategory cat);

/**
 * Accumulates joules per category. Supports merging (for composing
 * subsystem ledgers into a system total) and scaling (for normalising
 * per token / per request).
 */
class EnergyLedger
{
  public:
    EnergyLedger() { bins_.fill(0.0); }

    /** Add @p joules to @p cat. Negative deposits are a caller bug. */
    void add(EnergyCategory cat, double joules);

    /** Energy recorded for one category. */
    double get(EnergyCategory cat) const;

    /** Sum over all categories. */
    double total() const;

    /** Merge another ledger into this one. */
    void merge(const EnergyLedger &other);

    /** Return a copy with every bin multiplied by @p factor. */
    EnergyLedger scaled(double factor) const;

    /** Reset all bins to zero. */
    void clear() { bins_.fill(0.0); }

  private:
    std::array<double, kNumEnergyCategories> bins_;
};

/**
 * Percentile of a sample vector (pct in [0, 100]), computed on a
 * sorted copy with linear interpolation between order statistics
 * (the common "inclusive" definition: pct 0 = min, 100 = max, 50 =
 * median). Returns 0.0 for an empty vector. Deterministic: the same
 * samples in any order give the same value bit for bit (std::sort on
 * doubles is a total order here; callers never feed NaNs).
 */
double percentileOf(std::vector<double> samples, double pct);

} // namespace ouro

#endif // OURO_COMMON_STATS_HH
