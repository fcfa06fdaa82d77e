#include "trace.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace ouro
{

namespace
{

/** SplitMix64 finalizer (same constants as the Rng seeder). */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The private seed of request k: two mixing rounds over (seed, k) so
 * neighbouring counters land in unrelated streams. This is the whole
 * "no sequential RNG state" discipline - request k's randomness is
 * reachable without generating requests 0..k-1.
 */
std::uint64_t
requestSeed(std::uint64_t seed, std::uint64_t k)
{
    return mix64(mix64(seed) ^ (k * 0xd1342543de82ef95ULL + 1));
}

} // namespace

DayTrace::DayTrace(const DayTraceParams &params) : params_(params)
{
    // Bad parameters are user errors: fatal(), naming the field and
    // its value. NaNs fail every comparison, so they are caught too.
    if (params_.requests == 0)
        fatal("DayTrace: DayTraceParams::requests = 0");
    if (!(params_.daySeconds > 0.0))
        fatal("DayTrace: DayTraceParams::daySeconds = ",
              params_.daySeconds, " is not positive");
    if (params_.maxLen < 32)
        fatal("DayTrace: DayTraceParams::maxLen = ", params_.maxLen,
              " is below 32");
    // The request count must stay in the integer-exact double range:
    // window membership compares k + u_k (u_k in [0,1)) against the
    // cumulative targets, which needs k + u_k < k + 1 after rounding.
    if (params_.requests >= (1ULL << 52))
        fatal("DayTrace: DayTraceParams::requests = ", params_.requests,
              " is not below 2^52 (exact quantile arithmetic)");
    prefix_[0] = 0.0;
    for (std::size_t h = 0; h < 24; ++h) {
        if (!(params_.hourlyWeight[h] > 0.0))
            fatal("DayTrace: DayTraceParams::hourlyWeight[", h, "] = ",
                  params_.hourlyWeight[h], " is not positive");
        prefix_[h + 1] = prefix_[h] + params_.hourlyWeight[h];
    }
}

double
DayTrace::arrivalQuantile(std::uint64_t k) const
{
    ouroAssert(k < params_.requests, "DayTrace: index out of range");
    Rng rng(requestSeed(params_.seed, k));
    // First draw of the request's private stream is the arrival
    // jitter; request() consumes it in the same order.
    return static_cast<double>(k) + rng.uniform();
}

double
DayTrace::quantileTarget(double t) const
{
    if (t <= 0.0)
        return 0.0;
    if (t >= params_.daySeconds)
        return static_cast<double>(params_.requests);
    const double segment_width = params_.daySeconds / 24.0;
    auto h = static_cast<std::size_t>(t / segment_width);
    h = std::min<std::size_t>(h, 23);
    const double seg_start =
        static_cast<double>(h) * segment_width;
    const double frac = (t - seg_start) / segment_width;
    const double weight =
        prefix_[h] + params_.hourlyWeight[h] * frac;
    return static_cast<double>(params_.requests) * weight /
           prefix_[24];
}

double
DayTrace::arrivalTime(std::uint64_t k) const
{
    // Invert the cumulative curve at this request's quantile: find
    // the segment holding its share of the total weight, then
    // interpolate linearly inside it.
    const double weight =
        arrivalQuantile(k) * prefix_[24] /
        static_cast<double>(params_.requests);
    std::size_t h = 0;
    while (h < 23 && prefix_[h + 1] <= weight)
        ++h;
    const double frac = std::clamp(
            (weight - prefix_[h]) / params_.hourlyWeight[h], 0.0,
            1.0);
    const double segment_width = params_.daySeconds / 24.0;
    return (static_cast<double>(h) + frac) * segment_width;
}

std::uint64_t
DayTrace::indexAt(double t) const
{
    const double target = quantileTarget(t);
    // Binary search the strictly increasing quantile sequence for
    // the first k with q_k >= target. q_k < k + 1 always, so k >=
    // ceil(target) - 1 is a valid lower bracket; keep the plain
    // search for clarity (the sequence is only ~log2(N) probes).
    std::uint64_t lo = 0;
    std::uint64_t hi = params_.requests;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (arrivalQuantile(mid) < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

TraceWindowRange
DayTrace::windowRange(double t0, double t1) const
{
    ouroAssert(t0 <= t1, "DayTrace: window with t0 > t1");
    TraceWindowRange range;
    range.first = indexAt(t0);
    range.last = indexAt(t1);
    return range;
}

Request
DayTrace::request(std::uint64_t k) const
{
    ouroAssert(k < params_.requests, "DayTrace: index out of range");
    Rng rng(requestSeed(params_.seed, k));
    rng.uniform(); // the arrival jitter draw (arrivalQuantile)
    // Clipped lognormal lengths with the wikiText2Like floors and
    // context-window clamp: prefill >= 16, decode >= 16, total <=
    // maxLen (the prompt cap leaves the decode floor room).
    const double lp = rng.logNormal(
            std::log(params_.promptMedianTokens),
            params_.promptSigma);
    const double ld = rng.logNormal(
            std::log(params_.decodeMedianTokens),
            params_.decodeSigma);
    Request request;
    request.id = k;
    request.prefillLen = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(lp), 16, params_.maxLen - 16);
    request.decodeLen = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(ld), 16, params_.maxLen);
    if (request.prefillLen + request.decodeLen > params_.maxLen)
        request.decodeLen = params_.maxLen - request.prefillLen;
    return request;
}

Workload
DayTrace::window(double t0, double t1) const
{
    const TraceWindowRange range = windowRange(t0, t1);
    Workload workload;
    workload.name = "day[" + std::to_string(t0) + "," +
                    std::to_string(t1) + ")";
    workload.requests.reserve(range.count());
    for (std::uint64_t k = range.first; k < range.last; ++k)
        workload.requests.push_back(request(k));
    return workload;
}

Workload
DayTrace::wholeDay() const
{
    Workload workload = window(0.0, params_.daySeconds);
    workload.name = "day-trace";
    return workload;
}

} // namespace ouro
