/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Every bench binary prints aligned tables of the same rows/series
 * the paper's figure plots, normalised the same way the paper
 * normalises (per-figure baseline = 1.0). Request counts default to
 * 100 (the paper uses 1000; pass a count as argv[1] to scale up -
 * the normalised shapes are stable in the count).
 */

#ifndef OURO_BENCH_BENCH_UTIL_HH
#define OURO_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/analytic.hh"
#include "baselines/device_params.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/system.hh"
#include "workload/requests.hh"

namespace ouro::bench
{

/** Wall-clock stopwatch (steady clock). */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double seconds() const
    {
        return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Machine-readable benchmark record: BENCH_<name>.json in the
 * working directory, one flat JSON object per harness, so the perf
 * trajectory of the simulator itself is tracked run over run.
 * "name", "threads" and "detected_cores" are always present; add
 * wall time and an events/sec figure via metric(). Note that on a
 * 1-core runner (like CI containers) every parallel-vs-serial
 * speedup in these records is ~1x BY DESIGN - the deterministic
 * sweep runtime degrades to a serial loop; read speedups together
 * with detected_cores.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name) : name_(std::move(name))
    {
        metric("threads",
               static_cast<std::uint64_t>(defaultThreadCount()));
        metric("detected_cores",
               static_cast<std::uint64_t>(
                       std::thread::hardware_concurrency()));
    }

    /**
     * Record p50/p99 of a sample vector as <key>_p50 / <key>_p99
     * (plus <key>_samples with the count). No-op fields are still
     * written for empty vectors (both percentiles 0) so JSON
     * consumers see a stable schema.
     */
    BenchReport &percentiles(const std::string &key,
                             const std::vector<double> &samples)
    {
        metric(key + "_p50", percentileOf(samples, 50.0));
        metric(key + "_p99", percentileOf(samples, 99.0));
        metric(key + "_samples",
               static_cast<std::uint64_t>(samples.size()));
        return *this;
    }

    BenchReport &metric(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        fields_.emplace_back(key, buf);
        return *this;
    }

    BenchReport &metric(const std::string &key, std::uint64_t value)
    {
        fields_.emplace_back(key, std::to_string(value));
        return *this;
    }

    BenchReport &text(const std::string &key,
                      const std::string &value)
    {
        fields_.emplace_back(key, "\"" + value + "\"");
        return *this;
    }

    /** Write BENCH_<name>.json (also announces the path on stdout). */
    void write() const
    {
        const std::string path = "BENCH_" + name_ + ".json";
        std::ofstream out(path);
        if (!out) {
            warn("BenchReport: cannot write ", path);
            return;
        }
        out << "{\n  \"name\": \"" << name_ << "\"";
        for (const auto &[key, value] : fields_)
            out << ",\n  \"" << key << "\": " << value;
        out << "\n}\n";
        std::cout << "[bench] wrote " << path << "\n";
    }

  private:
    std::string name_;
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Request count: argv[1] if given, else 100. */
inline std::size_t
requestCount(int argc, char **argv, std::size_t fallback = 100)
{
    if (argc > 1) {
        const long n = std::atol(argv[1]);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return fallback;
}

/** Build an Ouroboros deployment or die with a clear message. */
inline OuroborosSystem
buildOuroboros(const ModelConfig &model, OuroborosOptions opts = {},
               OuroborosParams params = {})
{
    auto sys = OuroborosSystem::build(model, params, opts);
    if (!sys) {
        fatal("Ouroboros build failed for ", model.name,
              " with numWafers=", opts.numWafers,
              " (model does not fit)");
    }
    return std::move(*sys);
}

/** Print an energy breakdown row normalised by @p denom. */
inline void
energyCells(Table &table, const EnergyLedger &ledger, double denom)
{
    table.cell(ledger.get(EnergyCategory::Compute) / denom, 3);
    table.cell(ledger.get(EnergyCategory::Communication) / denom, 3);
    table.cell(ledger.get(EnergyCategory::OnChipMemory) / denom, 3);
    table.cell(ledger.get(EnergyCategory::OffChipMemory) / denom, 3);
    table.cell(ledger.total() / denom, 3);
}

} // namespace ouro::bench

#endif // OURO_BENCH_BENCH_UTIL_HH
