#include "sampled_run.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace ouro
{

namespace
{

/**
 * Two-sided 95% Student-t multiplier for @p df degrees of freedom
 * (abridged standard table; the estimator's df is the pooled
 * within-stratum count, so beyond ~30 the normal limit is fine).
 */
double
tMultiplier95(std::uint64_t df)
{
    static constexpr double kSmall[] = {
        12.706, 4.303, 3.182, 2.776, 2.571,
        2.447,  2.365, 2.306, 2.262, 2.228,
    };
    ouroAssert(df >= 1, "tMultiplier95: zero degrees of freedom");
    if (df <= 10)
        return kSmall[df - 1];
    if (df <= 15)
        return 2.131;
    if (df <= 20)
        return 2.086;
    if (df <= 30)
        return 2.042;
    return 1.96;
}

/**
 * Merge a run of per-window stats in ascending order: seed with the
 * first, fold the rest left to right. EVERY aggregation in this file
 * goes through this helper so the sampled estimator and the full-run
 * oracle share one floating-point association (the fraction-1.0
 * bitwise collapse depends on it).
 */
PipelineStats
mergeAscending(const PipelineStats *stats, std::size_t count)
{
    ouroAssert(count > 0, "mergeAscending: empty range");
    PipelineStats merged = stats[0];
    for (std::size_t i = 1; i < count; ++i)
        merged.merge(stats[i]);
    return merged;
}

} // namespace

SampledSimulator::SampledSimulator(DayTrace trace, ModelConfig model,
                                   StageTiming timing,
                                   std::vector<KvCoreInfo> score_pool,
                                   std::vector<KvCoreInfo> context_pool,
                                   SampledSimOptions opts)
    : trace_(std::move(trace)), model_(std::move(model)),
      timing_(timing), scorePool_(std::move(score_pool)),
      contextPool_(std::move(context_pool)), opts_(std::move(opts))
{
    if (opts_.numWindows == 0) {
        fatal("SampledSimulator: SampledSimOptions::numWindows = ",
              opts_.numWindows, " (must be positive)");
    }
    if (!(opts_.fraction > 0.0 && opts_.fraction <= 1.0)) {
        fatal("SampledSimulator: SampledSimOptions::fraction = ",
              opts_.fraction, " (must be in (0, 1])");
    }
    if (opts_.strata == 0)
        opts_.strata = 1;
    if (opts_.strata > opts_.numWindows)
        opts_.strata = static_cast<std::uint32_t>(opts_.numWindows);
}

std::uint32_t
SampledSimulator::numStrata() const
{
    return opts_.strata;
}

std::pair<double, double>
SampledSimulator::windowBounds(std::uint64_t i) const
{
    ouroAssert(i < opts_.numWindows,
               "SampledSimulator::windowBounds: window ", i,
               " out of range");
    const double day = trace_.daySeconds();
    const double w = static_cast<double>(opts_.numWindows);
    // Adjacent windows compute their shared boundary with the SAME
    // expression, so the windows partition [0, day) exactly: every
    // request falls in exactly one window, whatever the rounding.
    const double t0 = day * (static_cast<double>(i) / w);
    const double t1 = (i + 1 == opts_.numWindows)
                          ? day
                          : day * (static_cast<double>(i + 1) / w);
    return {t0, t1};
}

std::pair<std::uint64_t, std::uint64_t>
SampledSimulator::stratumBounds(std::uint32_t s) const
{
    ouroAssert(s < opts_.strata,
               "SampledSimulator::stratumBounds: stratum ", s,
               " out of range");
    const std::uint64_t w = opts_.numWindows;
    const std::uint64_t n = opts_.strata;
    return {w * s / n, w * (s + 1) / n};
}

std::vector<std::uint64_t>
SampledSimulator::measuredWindowIndices() const
{
    std::vector<std::uint64_t> sel;
    for (std::uint32_t s = 0; s < opts_.strata; ++s) {
        const auto [first, last] = stratumBounds(s);
        const std::uint64_t c = last - first;
        auto m = static_cast<std::uint64_t>(
            opts_.fraction * static_cast<double>(c));
        m = std::clamp<std::uint64_t>(m, 1, c);
        // Systematic sampling: one counter-seeded offset u in [0, 1)
        // per stratum, then every (c/m)-th window. The stride is
        // >= 1 so the m picks are distinct; at fraction 1.0 the pick
        // is floor(i + u) = i - all windows, whatever u.
        Rng rng(opts_.selectionSeed * 0x9e3779b97f4a7c15ULL +
                (static_cast<std::uint64_t>(s) + 1));
        const double u = rng.uniform();
        for (std::uint64_t i = 0; i < m; ++i) {
            auto j = static_cast<std::uint64_t>(
                (static_cast<double>(i) + u) * static_cast<double>(c) /
                static_cast<double>(m));
            if (j >= c)
                j = c - 1;
            sel.push_back(first + j);
        }
    }
    return sel;
}

PipelineStats
SampledSimulator::runWindow(std::uint64_t window) const
{
    const auto [t0, t1] = windowBounds(window);
    const Workload wl = trace_.window(t0, t1);
    // Fresh manager per window: windows are closed batches draining
    // to empty, so no KV state may carry across the boundary (the
    // idle-boundary premise of PipelineStats::merge).
    BlockKvManager kv(model_, scorePool_, contextPool_,
                      kKvBlockTokens, opts_.kvThreshold);
    return runPipeline(wl, model_, timing_, kv, opts_.pipeline);
}

PipelineStats
SampledSimulator::fullRun() const
{
    const std::uint64_t w = opts_.numWindows;
    std::vector<PipelineStats> slots(w);
    const auto body = [&](std::size_t i) { slots[i] = runWindow(i); };
    if (opts_.serialExecution) {
        for (std::size_t i = 0; i < w; ++i)
            body(i);
    } else {
        parallelFor(w, body);
    }

    PipelineStats total;
    for (std::uint32_t s = 0; s < opts_.strata; ++s) {
        const auto [first, last] = stratumBounds(s);
        const PipelineStats sm =
            mergeAscending(slots.data() + first, last - first);
        if (s == 0)
            total = sm;
        else
            total.merge(sm);
    }
    return total;
}

SampledEstimate
SampledSimulator::run() const
{
    const std::vector<std::uint64_t> sel = measuredWindowIndices();
    std::vector<PipelineStats> slots(sel.size());
    const auto body = [&](std::size_t i) {
        slots[i] = runWindow(sel[i]);
    };
    if (opts_.serialExecution) {
        for (std::size_t i = 0; i < sel.size(); ++i)
            body(i);
    } else {
        parallelFor(sel.size(), body);
    }

    SampledEstimate est;
    est.totalWindows = opts_.numWindows;
    est.measuredWindows = sel.size();
    est.coverage = static_cast<double>(sel.size()) /
                   static_cast<double>(opts_.numWindows);

    // Stratified expansion + variance. Folding strata in ascending
    // order with expansion N_s / m_s keeps the fraction-1.0 case on
    // the fullRun() association exactly: every E_s is then 1.0 and
    // x * 1.0 == x bit for bit.
    double var_y = 0.0;
    double var_t = 0.0;
    double cov_yt = 0.0;
    std::uint64_t df = 0;
    std::size_t cursor = 0;
    bool have_total = false;
    for (std::uint32_t s = 0; s < opts_.strata; ++s) {
        const auto [first, last] = stratumBounds(s);
        const std::size_t begin = cursor;
        while (cursor < sel.size() && sel[cursor] < last)
            ++cursor;
        const std::size_t m = cursor - begin;
        ouroAssert(m > 0, "SampledSimulator::run: stratum ", s,
                   " has no measured windows");
        const auto n_s = static_cast<double>(last - first);
        const auto m_s = static_cast<double>(m);
        const double expansion = n_s / m_s;

        const PipelineStats sm =
            mergeAscending(slots.data() + begin, m);
        if (!have_total) {
            est.measured = sm;
            have_total = true;
        } else {
            est.measured.merge(sm);
        }

        const auto out_s = static_cast<double>(sm.outputTokens);
        const auto pre_s = static_cast<double>(sm.tokensProcessed -
                                               sm.outputTokens);
        est.estOutputTokens += expansion * out_s;
        est.estPrefillTokens += expansion * pre_s;
        est.estMakespanSeconds += expansion * sm.makespanSeconds;

        if (m >= 2) {
            double mean_y = 0.0;
            double mean_t = 0.0;
            for (std::size_t i = begin; i < cursor; ++i) {
                mean_y += static_cast<double>(slots[i].outputTokens);
                mean_t += slots[i].makespanSeconds;
            }
            mean_y /= m_s;
            mean_t /= m_s;
            double s2y = 0.0;
            double s2t = 0.0;
            double syt = 0.0;
            for (std::size_t i = begin; i < cursor; ++i) {
                const double dy =
                    static_cast<double>(slots[i].outputTokens) -
                    mean_y;
                const double dt =
                    slots[i].makespanSeconds - mean_t;
                s2y += dy * dy;
                s2t += dt * dt;
                syt += dy * dt;
            }
            s2y /= m_s - 1.0;
            s2t /= m_s - 1.0;
            syt /= m_s - 1.0;
            // Finite-population correction: at fraction 1.0 the
            // stratum is a census and its variance term is exactly
            // zero, so the reported interval collapses with it.
            const double fpc = 1.0 - m_s / n_s;
            const double factor = n_s * n_s * fpc / m_s;
            var_y += factor * s2y;
            var_t += factor * s2t;
            cov_yt += factor * syt;
            df += m - 1;
        }
    }
    ouroAssert(cursor == sel.size(),
               "SampledSimulator::run: selection not consumed");

    if (est.estMakespanSeconds > 0.0) {
        est.estTokensPerSecond =
            est.estOutputTokens / est.estMakespanSeconds;
        est.estPrefillTokensPerSecond =
            est.estPrefillTokens / est.estMakespanSeconds;
    }

    est.ciValid = df >= 1;
    if (est.ciValid) {
        const double tmult = tMultiplier95(df);
        est.ciOutputTokens = tmult * std::sqrt(std::max(var_y, 0.0));
        if (est.estMakespanSeconds > 0.0) {
            // Ratio estimator R = Y / T, linearised:
            // Var(R) ~ (VarY - 2 R Cov + R^2 VarT) / T^2.
            const double r = est.estTokensPerSecond;
            const double var_r =
                (var_y - 2.0 * r * cov_yt + r * r * var_t) /
                (est.estMakespanSeconds * est.estMakespanSeconds);
            est.ciTokensPerSecond =
                tmult * std::sqrt(std::max(var_r, 0.0));
        }
    }

    est.p50TtftSeconds = percentileOf(est.measured.ttftSamples, 50.0);
    est.p99TtftSeconds = percentileOf(est.measured.ttftSamples, 99.0);
    est.p50InterTokenSeconds =
        percentileOf(est.measured.interTokenSamples, 50.0);
    est.p99InterTokenSeconds =
        percentileOf(est.measured.interTokenSamples, 99.0);
    return est;
}

} // namespace ouro
