/**
 * @file
 * The simulator's benchmark: one command that runs a named workload
 * through libouro's public entry points, prints every metric by name
 * and unit, and checks that the outputs are correct.
 *
 * Two kinds of time are measured. Host time is what the simulator
 * itself takes (system build, one pass over the workload, the layer
 * calls a traced pass breaks it into). Simulated time is what the
 * modelled wafer would deliver; every simulated statistic is a pure
 * function of the seed and repeats exactly. The model has no
 * reference measurements, so it is unvalidated and no error figure
 * against the paper is reported.
 *
 * Load model. The simulated traffic is an offline batch: Request has
 * no arrival time, so every request of a batch arrives at t = 0. A
 * workload is a few such batches, each an independent draw from the
 * seed, served one after the other; their statistics fold with
 * PipelineStats::merge (back to back, drained in between). On the
 * host the benchmark is a closed loop - one process, one simulation at
 * a time, passes repeated until the run's seconds are spent; the fleet
 * workload's per-wafer phase uses at most nproc threads (OURO_THREADS
 * is capped).
 *
 * Usage:
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--tiny] [--trace-dir <dir>] [--corrupt-stats]
 *
 * --trace 0 prints the end-to-end metrics, measured untraced.
 * --trace 1 alternates untraced passes with a traced decomposition of
 * the same calls into their layers' public calls, prints the per-layer
 * metrics, each layer's self time and the tracing overhead, and writes
 * the spans once, at the end, as Chrome trace-event JSON into
 * --trace-dir. --tiny shrinks every workload (the self-check mode of
 * run.py); --corrupt-stats corrupts a copied PipelineStats before the
 * repetition check, which must then fail.
 *
 * Host times are reported as the 10th percentile of their samples, with
 * the median beside it: on a shared host whose cores alternate between
 * a fast mode and one about 1.6x slower for seconds at a time (seen on
 * a 4-vCPU Xeon virtual machine), the median of a run jumps between the
 * two while the 10th percentile tracks the fast mode. run_s sums that estimate over the batches of a
 * pass, each timed on its own, so a long pass need not fall wholly in
 * one fast stretch. Set-up is repeated between passes, about ten times
 * per second of the run, for the same reason.
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. Any failed check exits with code 1.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "model/llm.hh"
#include "sim/fleet.hh"
#include "sim/stage_model.hh"
#include "sim/system.hh"
#include "workload/requests.hh"
#include "workload/trace.hh"

using namespace ouro;

namespace
{

// ---------------------------------------------------------------------
// Clock, statistics and checks
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Host seconds since the process started. */
double
nowSeconds()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/** The host-time estimate of a set of samples (see file comment). */
double
hostTime(const std::vector<double> &samples)
{
    return percentileOf(samples, 10.0);
}

std::vector<std::string> g_failedChecks;

/** Record a correctness check; a failed one makes the run exit 1. */
void
check(bool ok, const std::string &what)
{
    if (!ok) {
        g_failedChecks.push_back(what);
        std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    }
}

/** Every field of two PipelineStats agrees exactly. */
bool
sameStats(const PipelineStats &a, const PipelineStats &b)
{
    return a.makespanSeconds == b.makespanSeconds &&
           a.tokensProcessed == b.tokensProcessed &&
           a.outputTokens == b.outputTokens &&
           a.bottleneckBusySeconds == b.bottleneckBusySeconds &&
           a.utilization == b.utilization &&
           a.bubbleFraction == b.bubbleFraction &&
           a.evictions == b.evictions &&
           a.recomputedTokens == b.recomputedTokens &&
           a.stormEvictions == b.stormEvictions &&
           a.stormReprefilledTokens == b.stormReprefilledTokens &&
           a.skippedRequests == b.skippedRequests &&
           a.peakConcurrency == b.peakConcurrency &&
           a.avgContext == b.avgContext &&
           a.timingCacheHits == b.timingCacheHits &&
           a.timingCacheMisses == b.timingCacheMisses &&
           a.itemsProcessed == b.itemsProcessed &&
           a.contextTokensSum == b.contextTokensSum &&
           a.stageBusySumSeconds == b.stageBusySumSeconds &&
           a.ttftSamples == b.ttftSamples &&
           a.interTokenSamples == b.interTokenSamples &&
           a.outputTokenBins == b.outputTokenBins &&
           a.throughputBinSeconds == b.throughputBinSeconds;
}

bool
sameEvents(const std::vector<KvPoolEvent> &a,
           const std::vector<KvPoolEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].time != b[i].time || a[i].dropCores != b[i].dropCores ||
            a[i].adopts.size() != b[i].adopts.size())
            return false;
        for (std::size_t j = 0; j < a[i].adopts.size(); ++j) {
            if (!(a[i].adopts[j].info.coord ==
                  b[i].adopts[j].info.coord) ||
                a[i].adopts[j].scoreDuty != b[i].adopts[j].scoreDuty)
                return false;
        }
    }
    return true;
}

/** Storm resolution of two fleet runs agrees exactly. */
bool
sameStorm(const FleetResult &a, const FleetResult &b)
{
    return sameEvents(a.events, b.events) &&
           a.failuresInjected == b.failuresInjected &&
           a.failuresHandled == b.failuresHandled &&
           a.failuresSkipped == b.failuresSkipped &&
           a.kvCoresLost == b.kvCoresLost &&
           a.kvCoresAdopted == b.kvCoresAdopted &&
           a.borrows == b.borrows;
}

bool
sameWafers(const FleetResult &a, const FleetResult &b)
{
    if (a.wafers.size() != b.wafers.size())
        return false;
    for (std::size_t w = 0; w < a.wafers.size(); ++w) {
        if (!sameStats(a.wafers[w], b.wafers[w]))
            return false;
    }
    return true;
}

bool
sameFleet(const FleetResult &a, const FleetResult &b)
{
    return a.assignment == b.assignment &&
           a.requestsPerWafer == b.requestsPerWafer &&
           a.tokensCommitted == b.tokensCommitted &&
           a.dispatchWeight == b.dispatchWeight && sameWafers(a, b) &&
           sameStats(a.fleet, b.fleet) && sameStorm(a, b);
}

/** The highest percentile of a fixed ladder with at least 10 samples
 *  beyond it (p50 when there are too few samples for any). */
struct Percentile
{
    double pct = 50.0;
    double value = 0.0;
    double beyond = 0.0; ///< samples beyond the percentile
};

Percentile
tailOf(const std::vector<double> &samples)
{
    const double n = static_cast<double>(samples.size());
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        const double beyond = n * (100.0 - pct) / 100.0;
        if (beyond >= 10.0)
            return {pct, percentileOf(samples, pct), beyond};
    }
    return {50.0, percentileOf(samples, 50.0), n / 2.0};
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Generator
{
    WikiText128, ///< wikiText2Like, max_len 128: one KV block per head
    DayTrace512, ///< DayTrace, maxLen 512
};

struct WorkloadSpec
{
    const char *name;
    Generator generator;
    std::size_t requests;  ///< per batch
    std::size_t batches;
    std::uint32_t wafers;  ///< 1 = OuroborosSystem::run
    std::size_t tinyRequests;
};

const WorkloadSpec kWorkloads[] = {
    // Every sequence fits one KV block per head, so a whole batch is
    // resident at once: the cohort ring and growFast carry decode and
    // admission probing does no work.
    {"decode-steady", Generator::WikiText128, 512, 8, 1, 32},
    // Four wafers, about 256 requests each; wafer 1 takes a storm, and
    // its shrunken pool thrashes (evictions, failed admission probes).
    {"fleet-storm", Generator::DayTrace512, 1024, 32, 4, 64},
};

/** Batches per workload under --tiny. */
constexpr std::size_t kTinyBatches = 2;

/** The fleet-storm storm: failures, and the wafer that takes them. */
constexpr std::uint64_t kStormFailures = 16;
constexpr std::uint32_t kStormWafer = 1;

/** Seed arguments of batch @p batch of run seed @p seed (documented
 *  in manifest.json). */
struct Seeds
{
    std::uint64_t trace;    ///< DayTraceParams::seed
    std::uint64_t wiki;     ///< wikiText2Like seed
    std::uint64_t injector; ///< FailureInjectorParams::seed
};

Seeds
seedsFor(std::uint64_t seed, std::size_t batch)
{
    const std::uint64_t k = seed * 1000 + batch;
    return {20260808 + k, 20260311 + k, 4049 + k};
}

/** Generated requests per request served (see makeBatch). */
constexpr std::size_t kStratum = 8;

/**
 * One batch of @p requests requests, drawn from the generator as a
 * stratified sample: generate kStratum * requests, rank them by total
 * tokens, keep the middle request of every consecutive kStratum, and
 * serve the kept ones in generation order, renumbered. The length
 * distribution then barely moves from seed to seed, while which
 * requests are kept, their prefill/decode split and their order still
 * come from the seed.
 */
Workload
makeBatch(const WorkloadSpec &spec, std::size_t requests,
          const Seeds &seeds)
{
    const std::size_t drawn = kStratum * requests;
    Workload pool;
    switch (spec.generator) {
      case Generator::WikiText128:
        pool = wikiText2Like(drawn, 128, seeds.wiki);
        break;
      case Generator::DayTrace512: {
        DayTraceParams params;
        params.requests = drawn;
        params.seed = seeds.trace;
        params.maxLen = 512;
        pool = DayTrace(params).wholeDay();
        break;
      }
    }
    std::vector<std::size_t> rank(pool.requests.size());
    for (std::size_t i = 0; i < rank.size(); ++i)
        rank[i] = i;
    std::stable_sort(rank.begin(), rank.end(),
                     [&](std::size_t a, std::size_t b) {
                         return pool.requests[a].totalTokens() <
                                pool.requests[b].totalTokens();
                     });
    std::vector<std::size_t> kept;
    for (std::size_t g = 0; g < requests; ++g)
        kept.push_back(rank[g * kStratum + kStratum / 2]);
    std::sort(kept.begin(), kept.end());
    Workload w;
    w.name = spec.name;
    for (const std::size_t k : kept) {
        Request r = pool.requests[k];
        r.id = w.requests.size();
        w.requests.push_back(r);
    }
    return w;
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/** One traced call into a layer. */
struct Span
{
    std::string name;    ///< "<layer>.<call>"
    double start = 0.0;  ///< host seconds since process start
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span; -1 = root
    unsigned tid = 0;    ///< 0 = main thread, w + 1 = wafer w's worker
    std::size_t pass = 0; ///< pass the span belongs to
};

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

/** Spans kept in memory for the whole run, written once at the end. */
class Tracer
{
  public:
    int open(const char *name, int parent, std::size_t pass)
    {
        spans_.push_back({name, nowSeconds(), 0.0, parent, 0, pass});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[id].end = nowSeconds(); }

    /** Append spans closed on another thread. */
    void append(const std::vector<Span> &spans)
    {
        spans_.insert(spans_.end(), spans.begin(), spans.end());
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
};

/** Length of the union of @p intervals clipped to [lo, hi]. */
double
unionLength(std::vector<std::pair<double, double>> intervals, double lo,
            double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto &[s, e] : intervals) {
        const double from = std::max(s, cursor);
        const double to = std::min(e, hi);
        if (to > from) {
            covered += to - from;
            cursor = to;
        }
    }
    return covered;
}

/** What one traced pass's span tree says about each layer. */
struct PassProfile
{
    std::map<std::string, double> selfSeconds; ///< per layer
    std::map<std::string, double> callSeconds; ///< per span name
    double coverage = 0.0; ///< share of the root its children cover
    double waferHostMax = 0.0;        ///< slowest wafer, summed batches
    double parallelEfficiency = 0.0;  ///< see fleet.parallel_efficiency
};

/** Profile each traced pass ("bench.simulate" trees). */
std::vector<PassProfile>
profilePasses(const std::vector<Span> &spans, unsigned fleet_threads)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children[spans[i].parent].push_back(i);
    }
    std::map<std::size_t, PassProfile> passes;
    std::map<std::size_t, std::map<unsigned, double>> waferSeconds;
    std::map<std::size_t, double> phaseSeconds;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.name == "mapping.build")
            continue; // set-up, not part of a pass
        std::vector<std::pair<double, double>> kids;
        for (const std::size_t c : children[i])
            kids.emplace_back(spans[c].start, spans[c].end);
        const double dur = s.end - s.start;
        const double covered = unionLength(kids, s.start, s.end);
        PassProfile &p = passes[s.pass];
        p.selfSeconds[layerOf(s.name)] += dur - covered;
        p.callSeconds[s.name] += dur;
        if (s.parent < 0)
            p.coverage = dur > 0.0 ? covered / dur : 1.0;
        if (s.name == "fleet.wafers")
            phaseSeconds[s.pass] += dur;
        if (s.tid > 0)
            waferSeconds[s.pass][s.tid] += dur;
    }
    std::vector<PassProfile> out;
    for (auto &[pass, p] : passes) {
        double sum = 0.0;
        for (const auto &[tid, sec] : waferSeconds[pass]) {
            sum += sec;
            p.waferHostMax = std::max(p.waferHostMax, sec);
        }
        if (phaseSeconds[pass] > 0.0)
            p.parallelEfficiency = sum / (fleet_threads * phaseSeconds[pass]);
        out.push_back(std::move(p));
    }
    return out;
}

/** Write the spans as Chrome trace-event JSON. */
bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::string &workload,
                 const std::string &context_json)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << context_json
        << ",\n\"traceEvents\": [";
    char buf[128];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
            << "\", \"cat\": \"" << layerOf(s.name)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid;
        std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        out << buf << ", \"args\": {\"id\": " << i
            << ", \"parent\": " << s.parent << ", \"pass\": " << s.pass
            << ", \"workload\": \"" << workload << "\"}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Host context
// ---------------------------------------------------------------------

unsigned
nprocOnline()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Cap OURO_THREADS at nproc before the shared pool starts. */
unsigned
capThreads(unsigned nproc)
{
    unsigned threads = nproc;
    if (const char *env = std::getenv("OURO_THREADS")) {
        const long n = std::atol(env);
        if (n >= 1 && static_cast<unsigned long>(n) < nproc)
            threads = static_cast<unsigned>(n);
    }
    setenv("OURO_THREADS", std::to_string(threads).c_str(), 1);
    return threads;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Peak resident memory of this program image (VmHWM; getrusage's
 *  ru_maxrss would also count the parent's image before exec). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MB
    }
    return 0.0;
}

// ---------------------------------------------------------------------
// The simulation and its traced decomposition
// ---------------------------------------------------------------------

/** Outputs of one batch. */
struct BatchResult
{
    double hostSeconds = 0.0;
    PipelineStats stats; ///< the pipeline, or the fleet's fold
    double joulesPerOutputToken = 0.0;
    FleetResult fleet; ///< fleet workloads only

    double joules() const
    {
        return joulesPerOutputToken *
               std::max<double>(1.0, static_cast<double>(
                                             stats.outputTokens));
    }
};

/** Outputs of one pass over every batch of the workload. */
struct PassResult
{
    std::vector<BatchResult> batches;
    PipelineStats stats; ///< batches folded back to back (merge)
    double joules = 0.0;

    void fold()
    {
        stats = batches.front().stats;
        joules = batches.front().joules();
        for (std::size_t b = 1; b < batches.size(); ++b) {
            stats.merge(batches[b].stats);
            joules += batches[b].joules();
        }
    }

    double joulesPerOutputToken() const
    {
        return joules /
               std::max<double>(1.0, static_cast<double>(
                                             stats.outputTokens));
    }
};

/** Lifetime KV counters of the traced pass's own managers. */
struct KvCounters
{
    std::uint64_t admissions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t vSpills = 0;
    std::uint64_t totalBlocks = 0; ///< summed over managers

    void add(const BlockKvManager &kv)
    {
        admissions += kv.admissionCount();
        evictions += kv.evictionCount();
        vSpills += kv.vSpills();
        totalBlocks += kv.totalBlocks();
    }

    void add(const KvCounters &o)
    {
        admissions += o.admissions;
        evictions += o.evictions;
        vSpills += o.vSpills;
        totalBlocks += o.totalBlocks;
    }
};

/**
 * Modelled energy per output token of per-wafer runs, each priced the
 * way OuroborosSystem::run prices one run: its tokens at the per-token
 * energy of its mean attended context, plus the active fabric's static
 * power over its own makespan. The system computes in situ (useCim), so
 * no token re-streams weights. For a single wafer this is the system's
 * own figure bit for bit (checked).
 */
double
joulesPerOutputToken(const OuroborosSystem &sys,
                     const std::vector<PipelineStats> &wafers,
                     std::uint64_t output_tokens)
{
    const FabricFlags flags{sys.options().useCim,
                            sys.options().waferScale};
    const double static_watts = fabricStaticPower(
            sys.model(), sys.params(), sys.activeCores());
    EnergyLedger total;
    for (const PipelineStats &w : wafers) {
        EnergyLedger e = perTokenEnergy(sys.model(), sys.params(),
                                        sys.distances(), flags,
                                        w.avgContext, 0.0)
                             .scaled(static_cast<double>(
                                     w.tokensProcessed));
        e.add(EnergyCategory::Compute, static_watts * w.makespanSeconds);
        total.merge(e);
    }
    const double out =
        std::max<double>(1.0, static_cast<double>(output_tokens));
    return total.scaled(1.0 / out).total();
}

class Bench
{
  public:
    Bench(const WorkloadSpec &spec, OuroborosSystem sys,
          std::uint64_t seed, bool tiny)
        : spec_(spec), sys_(std::move(sys))
    {
        const std::size_t batches = tiny ? kTinyBatches : spec.batches;
        const std::size_t requests =
            tiny ? spec.tinyRequests : spec.requests;
        for (std::size_t b = 0; b < batches; ++b) {
            const Seeds seeds = seedsFor(seed, b);
            Batch batch{makeBatch(spec, requests, seeds), {}};
            if (spec.wafers > 1)
                batch.fleet = stormFleetOptions(batch.workload, seeds);
            batches_.push_back(std::move(batch));
        }
    }

    const OuroborosSystem &system() const { return sys_; }
    bool isFleet() const { return spec_.wafers > 1; }
    std::size_t numBatches() const { return batches_.size(); }
    const Workload &batch(std::size_t b) const
    {
        return batches_[b].workload;
    }

    std::size_t numRequests() const
    {
        std::size_t n = 0;
        for (const Batch &b : batches_)
            n += b.workload.requests.size();
        return n;
    }

    /** One pass: each batch through its top-level call -
     *  OuroborosSystem::run or runFleetServing. */
    PassResult simulate() const
    {
        PassResult r;
        for (const Batch &batch : batches_) {
            BatchResult b;
            const double t0 = nowSeconds();
            if (batch.fleet) {
                b.fleet = runFleetServing(sys_, batch.workload,
                                          *batch.fleet);
                b.stats = b.fleet.fleet;
                b.joulesPerOutputToken = joulesPerOutputToken(
                        sys_, b.fleet.wafers, b.stats.outputTokens);
            } else {
                const OuroborosReport report = sys_.run(batch.workload);
                b.stats = report.pipeline;
                b.joulesPerOutputToken =
                    report.result.energyPerTokenTotal();
            }
            b.hostSeconds = nowSeconds() - t0;
            r.batches.push_back(std::move(b));
        }
        return r;
    }

    /**
     * The same pass broken into its layers' public calls, one span
     * around each: per batch, runPipeline over the benchmark's own
     * BlockKvManager for one wafer; resolveStormSchedule,
     * fleetDispatch, splitByAssignment, runPipeline per wafer and
     * mergeConcurrent for the fleet. @p ref is the untraced pass (the
     * fleet's dispatch weights come from it).
     */
    PassResult tracedSimulate(Tracer &tracer, std::size_t pass,
                              const PassResult &ref,
                              KvCounters &kv) const
    {
        PassResult r;
        const int root = tracer.open("bench.simulate", -1, pass);
        for (std::size_t i = 0; i < batches_.size(); ++i) {
            const Batch &batch = batches_[i];
            BatchResult b;
            if (!batch.fleet) {
                int s = tracer.open("kvcache.init", root, pass);
                BlockKvManager mgr(sys_.model(), sys_.scorePool(),
                                   sys_.contextPool(), 128,
                                   sys_.options().kvThreshold);
                tracer.close(s);
                s = tracer.open("pipeline.run", root, pass);
                b.stats = runPipeline(batch.workload, sys_.model(),
                                      sys_.stageTiming(), mgr,
                                      systemPipelineOptions());
                tracer.close(s);
                kv.add(mgr);
            } else {
                tracedFleet(tracer, root, pass, batch,
                            ref.batches[i].fleet, b.fleet, kv);
                b.stats = b.fleet.fleet;
            }
            r.batches.push_back(std::move(b));
        }
        tracer.close(root);
        return r;
    }

  private:
    struct Batch
    {
        Workload workload;
        std::optional<FleetOptions> fleet;
    };

    /** The storm configuration of one batch: kStormFailures failures
     *  on wafer kStormWafer, spread over 30-50% of that wafer's clean
     *  makespan. */
    FleetOptions stormFleetOptions(const Workload &workload,
                                   const Seeds &seeds) const
    {
        FleetOptions opts;
        opts.numWafers = spec_.wafers;
        const FleetResult clean = runFleetServing(sys_, workload, opts);
        const double makespan = clean.wafers[kStormWafer].makespanSeconds;
        opts.stormWafer = kStormWafer;
        opts.injector.failures = kStormFailures;
        opts.injector.stormStart = 0.30 * makespan;
        opts.injector.stormDuration = 0.20 * makespan;
        opts.injector.seed = seeds.injector;
        opts.injector.weightFailureFraction = 0.25;
        return opts;
    }

    /** The options OuroborosSystem::run serves a workload with. */
    PipelineOptions systemPipelineOptions() const
    {
        PipelineOptions popts;
        popts.kind = sys_.options().tokenGrained
                         ? PipelineKind::TokenGrained
                         : PipelineKind::SequenceGrained;
        popts.staticKvAllocation = !sys_.options().dynamicKv;
        popts.maxContext = sys_.model().maxContext;
        popts.attentionParallelism = 16.0;
        return popts;
    }

    void tracedFleet(Tracer &tracer, int root, std::size_t pass,
                     const Batch &batch, const FleetResult &ref,
                     FleetResult &f, KvCounters &kv) const
    {
        const FleetOptions &opts = *batch.fleet;
        const std::uint32_t n = opts.numWafers;

        int s = tracer.open("runtime.resolve", root, pass);
        ResolvedStorm storm =
            resolveStormSchedule(sys_, opts.injector, opts.recovery);
        tracer.close(s);
        f.events = std::move(storm.events);
        f.failuresInjected = storm.failuresInjected;
        f.failuresHandled = storm.failuresHandled;
        f.failuresSkipped = storm.failuresSkipped;
        f.kvCoresLost = storm.kvCoresLost;
        f.kvCoresAdopted = storm.kvCoresAdopted;
        f.borrows = storm.borrows;

        s = tracer.open("fleet.dispatch", root, pass);
        FleetDispatchConfig dispatch;
        dispatch.numWafers = n;
        dispatch.capacityWeight = ref.dispatchWeight;
        f.assignment = fleetDispatch(batch.workload, dispatch);
        tracer.close(s);
        f.dispatchWeight = dispatch.capacityWeight;

        s = tracer.open("fleet.split", root, pass);
        const std::vector<Workload> shards =
            splitByAssignment(batch.workload, f.assignment, n);
        tracer.close(s);
        for (const Workload &shard : shards) {
            f.requestsPerWafer.push_back(shard.requests.size());
            f.tokensCommitted.push_back(shard.totalTokens());
        }

        const int phase = tracer.open("fleet.wafers", root, pass);
        f.wafers.resize(n);
        std::vector<std::vector<Span>> spans(n);
        std::vector<KvCounters> counters(n);
        parallelFor(n, [&](std::size_t w) {
            const unsigned tid = static_cast<unsigned>(w) + 1;
            Span init{"kvcache.init", nowSeconds(), 0.0, phase, tid, pass};
            BlockKvManager mgr(sys_.model(), sys_.scorePool(),
                               sys_.contextPool(), 128,
                               sys_.options().kvThreshold);
            init.end = nowSeconds();
            PipelineOptions popts;
            popts.kind = PipelineKind::TokenGrained;
            popts.attentionParallelism = opts.attentionParallelism;
            popts.cohortFastPath = opts.cohortFastPath;
            popts.throughputBinSeconds = opts.throughputBinSeconds;
            if (w == opts.stormWafer && !f.events.empty())
                popts.stormSchedule = &f.events;
            Span run{"pipeline.run", nowSeconds(), 0.0, phase, tid, pass};
            f.wafers[w] = runPipeline(shards[w], sys_.model(),
                                      sys_.stageTiming(), mgr, popts);
            run.end = nowSeconds();
            spans[w] = {init, run};
            counters[w].add(mgr);
        });
        tracer.close(phase);
        for (std::uint32_t w = 0; w < n; ++w) {
            tracer.append(spans[w]);
            kv.add(counters[w]);
        }

        s = tracer.open("stats.fold", root, pass);
        f.fleet = f.wafers[0];
        for (std::uint32_t w = 1; w < n; ++w)
            f.fleet.mergeConcurrent(f.wafers[w]);
        tracer.close(s);
    }

    const WorkloadSpec &spec_;
    OuroborosSystem sys_;
    std::vector<Batch> batches_;
};

// ---------------------------------------------------------------------
// Checks on one pass's outputs
// ---------------------------------------------------------------------

bool
samePass(const PassResult &a, const PassResult &b)
{
    if (a.batches.size() != b.batches.size() || a.joules != b.joules)
        return false;
    for (std::size_t i = 0; i < a.batches.size(); ++i) {
        if (!sameStats(a.batches[i].stats, b.batches[i].stats) ||
            !sameFleet(a.batches[i].fleet, b.batches[i].fleet))
            return false;
    }
    return sameStats(a.stats, b.stats);
}

/** Token conservation, latency-sample counts and sane outputs. */
void
checkOutputs(const Bench &bench, const PassResult &r)
{
    for (std::size_t i = 0; i < bench.numBatches(); ++i) {
        const Workload &w = bench.batch(i);
        const PipelineStats &s = r.batches[i].stats;
        std::uint64_t decode = 0;
        for (const Request &req : w.requests)
            decode += req.decodeLen;
        const std::uint64_t completed = w.requests.size() - s.skippedRequests;
        const std::string batch = "batch " + std::to_string(i) + ": ";
        // Skipped requests cannot be told apart by id, so conservation
        // is exact only without skips (the workloads are sized to have
        // none).
        check(s.skippedRequests == 0 ? s.outputTokens == decode
                                     : s.outputTokens < decode,
              batch + "token conservation: outputTokens " +
                  std::to_string(s.outputTokens) + " vs decodeLen sum " +
                  std::to_string(decode));
        check(s.ttftSamples.size() == completed,
              batch + "TTFT sample count " +
                  std::to_string(s.ttftSamples.size()) +
                  " != completed requests " + std::to_string(completed));
    }
    check(r.stats.outputTokensPerSecond() > 0.0 &&
              std::isfinite(r.joulesPerOutputToken()) &&
              r.joulesPerOutputToken() > 0.0,
          "modelled throughput and energy are positive and finite");
}

/** The regime each full-size workload was chosen for. */
void
checkRegime(const Bench &bench, const PassResult &r)
{
    for (std::size_t i = 0; i < r.batches.size(); ++i) {
        const PipelineStats &s = r.batches[i].stats;
        const double n = static_cast<double>(bench.batch(i).requests.size());
        if (!bench.isFleet()) {
            check(s.evictions == 0 && s.peakConcurrency == n,
                  "decode-steady: zero evictions and the whole batch "
                  "resident at once");
        } else {
            check(r.batches[i].fleet.failuresHandled > 0 &&
                      s.stormEvictions > 0,
                  "fleet-storm: the storm resolved failures and evicted "
                  "residents");
        }
    }
}

// ---------------------------------------------------------------------
// Metric output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
    std::string note;
};

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Note for a host time: estimator, median and sample count. */
std::string
hostNote(const std::vector<double> &samples, const char *what)
{
    return "p10 of " + std::to_string(samples.size()) + " " + what +
           ", median " + number(percentileOf(samples, 50.0));
}

void
printResult(const std::vector<Metric> &metrics, std::uint64_t attempted,
            std::uint64_t failed)
{
    for (const Metric &m : metrics) {
        std::cout << "  " << m.name << " = " << number(m.value) << " "
                  << m.unit;
        if (!m.note.empty())
            std::cout << "  (" << m.note << ")";
        std::cout << "\n";
        check(std::isfinite(m.value), m.name + " is finite");
    }
    const bool correct = g_failedChecks.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool tiny = false;
    bool corruptStats = false;
    std::string traceDir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] "
                 "[--trace-dir <dir>] [--corrupt-stats]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (flag == "--trace")
            a.trace = std::atoi(value().c_str());
        else if (flag == "--trace-dir")
            a.traceDir = value();
        else if (flag == "--tiny")
            a.tiny = true;
        else if (flag == "--corrupt-stats")
            a.corruptStats = true;
        else
            usage("unknown argument " + flag);
    }
    if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1))
        usage("--seconds must be > 0 and --trace 0 or 1");
    return a;
}

/** Minimum measured passes per run, whatever --seconds says. */
constexpr std::size_t kMinPasses = 3;
/** System builds before the first pass. */
constexpr std::size_t kBuilds = 21;
/** Further builds per second of the measured loop, made between passes. */
constexpr double kBuildsPerSecond = 10.0;

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads) {
        if (args.workload == w.name)
            spec = &w;
    }
    if (!spec)
        usage("unknown workload '" + args.workload + "'");
    setQuiet(true);

    const unsigned nproc = nprocOnline();
    const unsigned threads = capThreads(nproc);
    const unsigned fleetThreads =
        std::min<unsigned>(spec->wafers, threads + 1);
    Tracer tracer;

    // ---- Set-up: OuroborosSystem::build, repeated (see file comment). ----
    const ModelConfig model = llama13b();
    std::vector<double> buildSeconds;
    const auto build = [&]() {
        const int span = args.trace ? tracer.open("mapping.build", -1,
                                                  buildSeconds.size())
                                    : -1;
        const double t0 = nowSeconds();
        std::optional<OuroborosSystem> built =
            OuroborosSystem::build(model, OuroborosParams{});
        buildSeconds.push_back(nowSeconds() - t0);
        if (span >= 0)
            tracer.close(span);
        if (!built) {
            std::cerr << "perfbench: LLaMA-13B does not fit the wafer\n";
            std::exit(1);
        }
        return std::move(*built);
    };
    OuroborosSystem sys = build();
    const double byteHops = sys.totalMappingByteHops();
    const std::uint64_t activeCores = sys.activeCores();
    const auto rebuild = [&]() {
        const OuroborosSystem again = build();
        check(again.totalMappingByteHops() == byteHops &&
                  again.activeCores() == activeCores,
              "repeated system builds are identical");
    };
    const std::size_t initialBuilds = args.tiny ? 3 : kBuilds;
    for (std::size_t b = 1; b < initialBuilds; ++b)
        rebuild();
    check(sys.replicas() == 1,
          "LLaMA-13B serves as one replica chain (the traced "
          "decomposition runs the unsharded workload)");

    const Bench bench(*spec, std::move(sys), args.seed, args.tiny);
    const std::size_t requests = bench.numRequests();

    // ---- Warm-up: the reference pass (not timed). ----
    PassResult ref = bench.simulate();
    ref.fold();
    checkOutputs(bench, ref);
    if (!bench.isFleet()) {
        const PipelineStats &s0 = ref.batches[0].stats;
        check(joulesPerOutputToken(bench.system(), {s0},
                                   s0.outputTokens) ==
                  ref.batches[0].joulesPerOutputToken,
              "the fleet energy pricing reproduces "
              "OuroborosSystem::run on one wafer");
    }
    if (!args.tiny)
        checkRegime(bench, ref);

    // ---- Measured loop: closed, one simulation at a time. ----
    std::vector<double> passSeconds;
    std::vector<std::vector<double>> batchSeconds(bench.numBatches());
    std::vector<double> tracedSeconds;
    std::size_t passes = 1;
    std::size_t traced = 0;
    KvCounters kv;
    PassResult tracedRef;
    const double loopStart = nowSeconds();
    while (passSeconds.size() < kMinPasses ||
           nowSeconds() - loopStart < args.seconds) {
        const double t0 = nowSeconds();
        PassResult r = bench.simulate();
        passSeconds.push_back(nowSeconds() - t0);
        for (std::size_t b = 0; b < r.batches.size(); ++b)
            batchSeconds[b].push_back(r.batches[b].hostSeconds);
        r.fold();
        ++passes;
        if (args.corruptStats && passSeconds.size() == 1)
            r.batches[0].stats.outputTokens += 1;
        check(samePass(r, ref),
              "pass " + std::to_string(passSeconds.size()) +
                  " is bit-identical to the first pass");
        if (args.trace) {
            KvCounters passKv;
            const double t1 = nowSeconds();
            PassResult t = bench.tracedSimulate(tracer, traced, ref, passKv);
            tracedSeconds.push_back(nowSeconds() - t1);
            t.fold();
            if (traced == 0) {
                kv = passKv;
                tracedRef = t;
            }
            ++traced;
            ++passes;
            for (std::size_t i = 0; i < t.batches.size(); ++i) {
                const FleetResult &tf = t.batches[i].fleet;
                const FleetResult &rf = ref.batches[i].fleet;
                const std::string batch = "batch " + std::to_string(i);
                if (bench.isFleet()) {
                    check(sameStorm(tf, rf), batch +
                          ": traced storm resolution equals the untraced");
                    check(tf.assignment == rf.assignment, batch +
                          ": traced dispatch assignment equals the "
                          "untraced");
                    check(sameWafers(tf, rf), batch +
                          ": traced per-wafer stats equal the untraced");
                }
                check(sameStats(t.batches[i].stats, ref.batches[i].stats),
                      batch + (bench.isFleet()
                                   ? ": traced fleet fold equals the "
                                     "untraced"
                                   : ": traced PipelineStats equal the "
                                     "untraced"));
            }
        }
        do
            rebuild();
        while (buildSeconds.size() <
               initialBuilds + kBuildsPerSecond * (nowSeconds() - loopStart));
        if (!g_failedChecks.empty())
            break;
    }

    // ---- Host context, recorded with every result. ----
    std::ostringstream ctx;
    ctx << "{\"workload\": \"" << spec->name << "\", \"seed\": "
        << args.seed << ", \"trace\": " << args.trace
        << ", \"nproc\": " << nproc << ", \"ouro_threads\": " << threads
        << ", \"fleet_threads\": " << fleetThreads
        << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"compiler\": \"" << compilerName()
        << "\", \"batches\": " << bench.numBatches()
        << ", \"requests_per_batch\": " << bench.batch(0).requests.size()
        << ", \"wafers\": " << spec->wafers
        << ", \"builds\": " << buildSeconds.size()
        << ", \"passes\": " << passSeconds.size()
        << ", \"traced_passes\": " << traced
        << ", \"tiny\": " << (args.tiny ? "true" : "false") << "}";
    std::cout << "perfbench: workload " << spec->name << ", seed "
              << args.seed << ", " << bench.numBatches() << " x "
              << bench.batch(0).requests.size() << " requests on "
              << spec->wafers << " wafer(s), " << passSeconds.size()
              << " measured passes"
              << (args.trace ? " + " + std::to_string(traced) + " traced"
                             : std::string())
              << "\ncontext: " << ctx.str() << "\n";

    const PipelineStats &s = ref.stats;
    const std::uint64_t attempted = requests * passes;
    const std::uint64_t failed = s.skippedRequests * passes;
    std::cout << "  failed_request_fraction = "
              << number(static_cast<double>(s.skippedRequests) /
                        static_cast<double>(requests))
              << " ratio  (" << s.skippedRequests << " skipped of "
              << requests << " requests)\n";

    std::vector<Metric> metrics;
    if (!args.trace) {
        double run_s = 0.0;
        for (const std::vector<double> &samples : batchSeconds)
            run_s += hostTime(samples);
        const Percentile ttft = tailOf(s.ttftSamples);
        const Percentile itl = tailOf(s.interTokenSamples);
        const auto tailNote = [](const Percentile &p, std::size_t n) {
            return "p" + number(p.pct) + ", " + number(p.beyond) +
                   " samples beyond it, n=" + std::to_string(n);
        };
        metrics = {
            {"setup_s", "s", hostTime(buildSeconds),
             hostNote(buildSeconds, "builds")},
            {"run_s", "s", run_s,
             "sum over batches of " + hostNote(passSeconds, "passes")},
            {"sim_tokens_per_host_s", "tok/s",
             static_cast<double>(s.tokensProcessed) / run_s,
             std::to_string(s.tokensProcessed) + " pipeline tokens"},
            {"peak_rss_mb", "MB", peakRssMb(), "host peak resident"},
            {"sim_output_tokens_per_s", "tok/s",
             s.outputTokensPerSecond(), "modelled"},
            {"sim_ttft_p50_s", "s", percentileOf(s.ttftSamples, 50.0),
             "modelled, n=" + std::to_string(s.ttftSamples.size())},
            {"sim_ttft_tail_s", "s", ttft.value,
             tailNote(ttft, s.ttftSamples.size())},
            {"sim_itl_p50_s", "s", percentileOf(s.interTokenSamples, 50.0),
             "modelled, n=" + std::to_string(s.interTokenSamples.size())},
            {"sim_itl_tail_s", "s", itl.value,
             tailNote(itl, s.interTokenSamples.size())},
            {"sim_joules_per_output_token", "J",
             ref.joulesPerOutputToken(), "modelled"},
        };
    } else {
        const std::vector<PassProfile> profiles =
            profilePasses(tracer.spans(), fleetThreads);
        const auto passMedian = [&](auto &&fn) {
            std::vector<double> v;
            for (const PassProfile &p : profiles)
                v.push_back(fn(p));
            return percentileOf(v, 50.0);
        };
        const auto callTime = [&](const char *name) {
            return passMedian([&](const PassProfile &p) {
                const auto it = p.callSeconds.find(name);
                return it == p.callSeconds.end() ? 0.0 : it->second;
            });
        };

        // Storm counters and wafer spread, summed or averaged over the
        // batches of the traced pass.
        FleetResult storm;
        double spread = 0.0;
        for (const BatchResult &b : tracedRef.batches) {
            storm.failuresHandled += b.fleet.failuresHandled;
            storm.failuresSkipped += b.fleet.failuresSkipped;
            storm.kvCoresLost += b.fleet.kvCoresLost;
            storm.borrows += b.fleet.borrows;
            double lo = b.stats.makespanSeconds;
            double hi = 0.0;
            for (const PipelineStats &w : b.fleet.wafers) {
                lo = std::min(lo, w.makespanSeconds);
                hi = std::max(hi, w.makespanSeconds);
            }
            spread += b.fleet.wafers.empty() ? 1.0 : hi / lo;
        }
        spread /= static_cast<double>(tracedRef.batches.size());

        const double tokens = static_cast<double>(s.tokensProcessed);
        const double coverage =
            passMedian([](const PassProfile &p) { return p.coverage; });
        check(coverage >= 0.95,
              "top-level layer spans cover >= 95% of the traced wall "
              "time (" + number(coverage) + ")");
        const double pipeline_s = callTime("pipeline.run");

        metrics = {
            {"mapping.build_s", "s", percentileOf(buildSeconds, 50.0),
             "median of " + std::to_string(buildSeconds.size()) +
                 " traced builds"},
            {"mapping.byte_hops", "byte-hop",
             bench.system().totalMappingByteHops(), ""},
            {"mapping.active_cores", "count",
             static_cast<double>(bench.system().activeCores()), ""},
            {"runtime.resolve_s", "s", callTime("runtime.resolve"), ""},
            {"runtime.failures_handled", "count",
             static_cast<double>(storm.failuresHandled), ""},
            {"runtime.failures_skipped", "count",
             static_cast<double>(storm.failuresSkipped), ""},
            {"runtime.kv_cores_lost", "count",
             static_cast<double>(storm.kvCoresLost), ""},
            {"runtime.borrows", "count",
             static_cast<double>(storm.borrows), ""},
            {"fleet.dispatch_s", "s", callTime("fleet.dispatch"), ""},
            {"fleet.wafer_makespan_spread", "ratio", spread,
             "slowest over fastest wafer, mean over batches"},
            {"fleet.wafer_host_s_max", "s",
             passMedian([](const PassProfile &p) {
                 return p.waferHostMax;
             }),
             "slowest wafer's host time, summed over batches"},
            {"fleet.parallel_efficiency", "ratio",
             passMedian([](const PassProfile &p) {
                 return p.parallelEfficiency;
             }),
             std::to_string(fleetThreads) + " threads"},
            {"pipeline.run_s", "s", pipeline_s,
             "summed over batches and wafers"},
            {"pipeline.host_ns_per_token", "ns/tok",
             pipeline_s * 1e9 / tokens, ""},
            {"pipeline.tokens", "count", tokens, ""},
            {"pipeline.items", "count",
             static_cast<double>(s.itemsProcessed), ""},
            {"pipeline.timing_cache_hit_rate", "ratio",
             static_cast<double>(s.timingCacheHits) /
                 static_cast<double>(std::max<std::uint64_t>(
                         1, s.timingCacheHits + s.timingCacheMisses)),
             ""},
            {"pipeline.recomputed_tokens", "count",
             static_cast<double>(s.recomputedTokens), ""},
            {"pipeline.useful_token_fraction", "ratio",
             1.0 - static_cast<double>(s.recomputedTokens) / tokens, ""},
            {"pipeline.evictions", "count",
             static_cast<double>(s.evictions), ""},
            {"pipeline.storm_evictions", "count",
             static_cast<double>(s.stormEvictions), ""},
            {"pipeline.utilization", "ratio", s.utilization, ""},
            {"pipeline.bubble_fraction", "ratio", s.bubbleFraction, ""},
            {"pipeline.peak_concurrency", "count", s.peakConcurrency,
             "largest over batches"},
            {"kvcache.admissions", "count",
             static_cast<double>(kv.admissions), ""},
            {"kvcache.admissions_per_request", "ratio",
             static_cast<double>(kv.admissions) /
                 static_cast<double>(requests),
             ""},
            {"kvcache.evictions", "count",
             static_cast<double>(kv.evictions), ""},
            {"kvcache.v_spills", "count", static_cast<double>(kv.vSpills),
             ""},
            {"kvcache.total_blocks", "count",
             static_cast<double>(kv.totalBlocks) /
                 static_cast<double>(bench.numBatches()),
             "pool blocks after a batch, summed over wafers"},
            {"stats.fold_s", "s", callTime("stats.fold"), ""},
            {"trace.overhead_s", "s",
             percentileOf(tracedSeconds, 50.0) -
                 percentileOf(passSeconds, 50.0),
             "traced minus untraced pass, medians"},
            {"trace.top_level_coverage", "ratio", coverage,
             "top-level layer spans over the traced pass"},
        };
        // Self time of every layer in the pass tree.
        for (const char *layer :
             {"bench", "runtime", "fleet", "kvcache", "pipeline", "stats"}) {
            const double self = passMedian([&](const PassProfile &p) {
                const auto it = p.selfSeconds.find(layer);
                return it == p.selfSeconds.end() ? 0.0 : it->second;
            });
            metrics.push_back({std::string(layer) + ".self_s", "s", self,
                               "layer self time, median of " +
                                   std::to_string(profiles.size()) +
                                   " traced passes"});
        }

        const std::string path = args.traceDir + "/perfbench-" +
                                 spec->name + "-seed" +
                                 std::to_string(args.seed) + ".json";
        check(writeChromeTrace(path, tracer.spans(), spec->name,
                               ctx.str()),
              "wrote the Chrome trace to " + path);
        std::cout << "  trace: " << tracer.spans().size()
                  << " spans written to " << path << "\n";
    }

    printResult(metrics, attempted, failed);
    return g_failedChecks.empty() ? 0 : 1;
}
