/**
 * @file
 * Property tests for the streaming day-trace generator, above all
 * the contract the sampled-window simulator stands on: materializing
 * any [t0, t1) window is BIT-IDENTICAL to generating the whole day
 * and slicing it, because every request is a pure function of
 * (params, index) and window membership is decided in quantile
 * space. Plus seed-stability golden pins (a silent change to the
 * counter-seeding or the distributions would invalidate every
 * recorded benchmark) and the rate-integral property |window count -
 * expected arrivals| <= 2.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "workload/trace.hh"

namespace ouro
{
namespace
{

DayTraceParams
smallParams(std::uint64_t requests = 3000, std::uint64_t seed = 7)
{
    DayTraceParams p;
    p.requests = requests;
    p.seed = seed;
    return p;
}

void
expectSameRequests(const std::vector<Request> &a,
                   const std::vector<Request> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].prefillLen, b[i].prefillLen);
        EXPECT_EQ(a[i].decodeLen, b[i].decodeLen);
    }
}

TEST(DayTrace, WindowsSliceTheWholeDayBitIdentically)
{
    for (const std::uint64_t seed : {1ull, 7ull, 20260808ull}) {
        const DayTrace trace(smallParams(3000, seed));
        const Workload whole = trace.wholeDay();
        ASSERT_EQ(whole.requests.size(), 3000u);

        // Uneven partition of the day; adjacent windows share their
        // boundary value, so every request lands in exactly one.
        const double day = trace.daySeconds();
        const std::vector<double> cuts = {0.0,
                                          0.037 * day,
                                          0.25 * day,
                                          0.251 * day,
                                          0.5 * day,
                                          0.93 * day,
                                          day};
        std::vector<Request> stitched;
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            const Workload w = trace.window(cuts[i], cuts[i + 1]);

            // Window == oracle: scan every request of the day and
            // keep those whose arrival quantile is in range.
            const double q0 = trace.quantileTarget(cuts[i]);
            const double q1 = trace.quantileTarget(cuts[i + 1]);
            std::vector<Request> oracle;
            for (std::uint64_t k = 0; k < trace.size(); ++k) {
                const double q = trace.arrivalQuantile(k);
                if (q >= q0 && q < q1)
                    oracle.push_back(trace.request(k));
            }
            expectSameRequests(w.requests, oracle);

            stitched.insert(stitched.end(), w.requests.begin(),
                            w.requests.end());
        }
        expectSameRequests(stitched, whole.requests);
    }
}

TEST(DayTrace, SeedStabilityGoldenPins)
{
    // Exact values for the DEFAULT params (requests 10000, seed
    // 20260808). These pin the counter-seeded streams and the
    // quantile/arrival maps; a mismatch means the generator changed
    // and every recorded day-trace benchmark is invalidated.
    const DayTrace trace{DayTraceParams{}};

    const Request r0 = trace.request(0);
    EXPECT_EQ(r0.prefillLen, 125u);
    EXPECT_EQ(r0.decodeLen, 234u);
    const Request r1 = trace.request(1);
    EXPECT_EQ(r1.prefillLen, 105u);
    EXPECT_EQ(r1.decodeLen, 182u);
    const Request rm = trace.request(4999);
    EXPECT_EQ(rm.prefillLen, 297u);
    EXPECT_EQ(rm.decodeLen, 29u);
    const Request rl = trace.request(9999);
    EXPECT_EQ(rl.prefillLen, 114u);
    EXPECT_EQ(rl.decodeLen, 26u);

    EXPECT_EQ(trace.arrivalQuantile(0), 0.57644179729537359);
    EXPECT_EQ(trace.arrivalQuantile(9999), 9999.7276296641921);
    EXPECT_EQ(trace.arrivalTime(0), 9.1486254160466896);
    EXPECT_EQ(trace.arrivalTime(4999), 52056.174793954531);

    const TraceWindowRange peak =
        trace.windowRange(9.0 * 3600.0, 9.25 * 3600.0);
    EXPECT_EQ(peak.first, 1724u);
    EXPECT_EQ(peak.last, 1862u);
}

TEST(DayTrace, RequestIsAPureFunctionOfParamsAndIndex)
{
    const DayTrace a(smallParams());
    const DayTrace b(smallParams());
    for (std::uint64_t k = 0; k < 200; ++k) {
        const Request ra = a.request(k);
        const Request rb = b.request(k);
        const Request ra2 = a.request(k); // no hidden state
        EXPECT_EQ(ra.prefillLen, rb.prefillLen);
        EXPECT_EQ(ra.decodeLen, rb.decodeLen);
        EXPECT_EQ(ra.prefillLen, ra2.prefillLen);
        EXPECT_EQ(ra.decodeLen, ra2.decodeLen);
        EXPECT_EQ(ra.id, k);
    }
}

TEST(DayTrace, WindowCountMatchesRateIntegralProperty)
{
    const DayTrace trace(smallParams(5000, 11));
    const double day = trace.daySeconds();
    // Sweep aligned and unaligned windows of several widths; the
    // count must match the diurnal rate integral (the quantile
    // difference) to within rounding at both boundaries.
    for (const double width : {600.0, 900.0, 3600.0, 7777.0}) {
        for (double t0 = 0.0; t0 + width <= day; t0 += 3911.0) {
            const TraceWindowRange r =
                trace.windowRange(t0, t0 + width);
            const double expected = trace.quantileTarget(t0 + width) -
                                    trace.quantileTarget(t0);
            EXPECT_LE(std::fabs(static_cast<double>(r.count()) -
                                expected),
                      2.0)
                << "window [" << t0 << ", " << t0 + width << ")";
        }
    }
}

TEST(DayTrace, WholeDayCountIsExact)
{
    for (const std::uint64_t n : {1ull, 17ull, 3000ull}) {
        const DayTrace trace(smallParams(n, 5));
        const TraceWindowRange whole =
            trace.windowRange(0.0, trace.daySeconds());
        EXPECT_EQ(whole.first, 0u);
        EXPECT_EQ(whole.last, n);
        // Out-of-range bounds clamp to the day.
        const TraceWindowRange beyond =
            trace.windowRange(-100.0, trace.daySeconds() + 100.0);
        EXPECT_EQ(beyond.count(), n);
        EXPECT_EQ(trace.wholeDay().requests.size(), n);
    }
}

TEST(DayTrace, ArrivalsAreOrderedAndInRange)
{
    const DayTrace trace(smallParams(2000, 3));
    double prev_q = -1.0;
    for (std::uint64_t k = 0; k < trace.size(); ++k) {
        const double q = trace.arrivalQuantile(k);
        EXPECT_GT(q, prev_q); // strictly increasing, exactly
        EXPECT_GE(q, static_cast<double>(k));
        EXPECT_LT(q, static_cast<double>(k + 1));
        prev_q = q;

        const double t = trace.arrivalTime(k);
        EXPECT_GE(t, 0.0);
        EXPECT_LE(t, trace.daySeconds());
    }
    // Arrival times follow the quantiles monotonically (up to the
    // piecewise-linear inversion, which preserves order).
    for (std::uint64_t k = 1; k < trace.size(); ++k)
        EXPECT_LE(trace.arrivalTime(k - 1), trace.arrivalTime(k));
}

TEST(DayTrace, LengthsRespectFloorsAndContextWindow)
{
    for (const std::uint64_t max_len : {32ull, 128ull, 2048ull}) {
        DayTraceParams p = smallParams(1500, 9);
        p.maxLen = max_len;
        const DayTrace trace(p);
        for (std::uint64_t k = 0; k < trace.size(); ++k) {
            const Request r = trace.request(k);
            EXPECT_GE(r.prefillLen, 16u);
            EXPECT_GE(r.decodeLen, 16u);
            EXPECT_LE(r.totalTokens(), max_len);
        }
    }
}

TEST(DayTrace, IndexAtAgreesWithLinearScan)
{
    const DayTrace trace(smallParams(500, 21));
    for (const double t :
         {0.0, 1.0, 3600.5, 43210.0, 80000.0, 86399.9}) {
        const double target = trace.quantileTarget(t);
        std::uint64_t expected = trace.size();
        for (std::uint64_t k = 0; k < trace.size(); ++k) {
            if (trace.arrivalQuantile(k) >= target) {
                expected = k;
                break;
            }
        }
        EXPECT_EQ(trace.indexAt(t), expected) << "t=" << t;
    }
    EXPECT_EQ(trace.indexAt(trace.daySeconds()), trace.size());
    EXPECT_EQ(trace.indexAt(0.0), 0u);
}

TEST(DayTrace, DiurnalCurveShapesTheDay)
{
    // More of the default two-peak day arrives in the busy afternoon
    // hour than in the overnight trough.
    const DayTrace trace(smallParams(5000, 2));
    const auto trough = trace.windowRange(4.0 * 3600, 5.0 * 3600);
    const auto peak = trace.windowRange(10.0 * 3600, 11.0 * 3600);
    EXPECT_GT(peak.count(), 3 * trough.count());
}

TEST(DayTrace, BadParamsDieNamingTheField)
{
    // Bad parameters are user errors: fatal() with the field's name
    // and value, not an assert. Threadsafe death tests re-run this
    // test alone in a fresh process, as the fleet and sampled-run
    // suites do.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DayTraceParams p = smallParams();
    p.requests = 0;
    EXPECT_DEATH({ DayTrace t(p); }, "DayTraceParams::requests = 0");
    p.requests = 1ULL << 52;
    EXPECT_DEATH({ DayTrace t(p); },
                 "DayTraceParams::requests = 4503599627370496 is not "
                 "below 2\\^52");

    p = smallParams();
    p.daySeconds = 0.0;
    EXPECT_DEATH({ DayTrace t(p); },
                 "DayTraceParams::daySeconds = 0 is not positive");
    p.daySeconds = -5.0;
    EXPECT_DEATH({ DayTrace t(p); },
                 "DayTraceParams::daySeconds = -5 is not positive");

    p = smallParams();
    p.maxLen = 31;
    EXPECT_DEATH({ DayTrace t(p); },
                 "DayTraceParams::maxLen = 31 is below 32");

    p = smallParams();
    p.hourlyWeight[7] = 0.0;
    EXPECT_DEATH({ DayTrace t(p); },
                 "DayTraceParams::hourlyWeight\\[7\\] = 0 is not "
                 "positive");
    p.hourlyWeight[7] = -1.5;
    EXPECT_DEATH({ DayTrace t(p); },
                 "DayTraceParams::hourlyWeight\\[7\\] = -1\\.5 is not "
                 "positive");
}

} // namespace
} // namespace ouro
