#include "stats.hh"

#include <algorithm>

#include "logging.hh"

namespace ouro
{

const char *
energyCategoryName(EnergyCategory cat)
{
    switch (cat) {
      case EnergyCategory::Compute:
        return "compute";
      case EnergyCategory::Communication:
        return "communication";
      case EnergyCategory::OnChipMemory:
        return "on-chip-memory";
      case EnergyCategory::OffChipMemory:
        return "off-chip-memory";
    }
    panic("energyCategoryName: bad category");
}

void
EnergyLedger::add(EnergyCategory cat, double joules)
{
    ouroAssert(joules >= 0.0, "EnergyLedger::add: negative deposit ",
               joules, " J into ", energyCategoryName(cat));
    bins_[static_cast<std::size_t>(cat)] += joules;
}

double
EnergyLedger::get(EnergyCategory cat) const
{
    return bins_[static_cast<std::size_t>(cat)];
}

double
EnergyLedger::total() const
{
    double sum = 0.0;
    for (double b : bins_)
        sum += b;
    return sum;
}

void
EnergyLedger::merge(const EnergyLedger &other)
{
    for (std::size_t i = 0; i < kNumEnergyCategories; ++i)
        bins_[i] += other.bins_[i];
}

EnergyLedger
EnergyLedger::scaled(double factor) const
{
    ouroAssert(factor >= 0.0, "EnergyLedger::scaled: negative factor");
    EnergyLedger out;
    for (std::size_t i = 0; i < kNumEnergyCategories; ++i)
        out.bins_[i] = bins_[i] * factor;
    return out;
}

double
percentileOf(std::vector<double> samples, double pct)
{
    if (samples.empty())
        return 0.0;
    ouroAssert(pct >= 0.0 && pct <= 100.0,
               "percentileOf: pct out of [0, 100]");
    std::sort(samples.begin(), samples.end());
    const double rank =
        pct / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= samples.size())
        return samples.back();
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[lo + 1] - samples[lo]) * frac;
}

} // namespace ouro
