#include "failure_injector.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace ouro
{

namespace
{

/** SplitMix64 finalizer (same constants as the Rng seeder and the
 *  DayTrace counter-seeding). */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Failure k's private seed: two mixing rounds over (seed, k), the
 *  DayTrace discipline - failure k's randomness is reachable without
 *  generating failures 0..k-1. */
std::uint64_t
failureSeed(std::uint64_t seed, std::uint64_t k)
{
    return mix64(mix64(seed) ^ (k * 0xd1342543de82ef95ULL + 1));
}

} // namespace

FailureInjector::FailureInjector(const FailureInjectorParams &params)
    : params_(params)
{
    // Bad parameters are user errors: fatal(), naming the field and
    // its value. NaNs fail every comparison, so they are caught too.
    if (!(params_.stormDuration > 0.0))
        fatal("FailureInjector: FailureInjectorParams::stormDuration = ",
              params_.stormDuration, " is not positive");
    if (!(params_.weightFailureFraction >= 0.0 &&
          params_.weightFailureFraction <= 1.0))
        fatal("FailureInjector: "
              "FailureInjectorParams::weightFailureFraction = ",
              params_.weightFailureFraction, " is outside [0, 1]");
    // Strict monotonicity needs k + u_k exact in double (the
    // DayTrace bound).
    if (params_.failures >= (1ULL << 52))
        fatal("FailureInjector: FailureInjectorParams::failures = ",
              params_.failures,
              " is not below 2^52 (exact schedule arithmetic)");
}

double
FailureInjector::failureTime(std::uint64_t k) const
{
    ouroAssert(k < params_.failures,
               "FailureInjector: index out of range");
    Rng rng(failureSeed(params_.seed, k));
    // Draw 1 of the failure's private stream: the time jitter.
    const double quantile = static_cast<double>(k) + rng.uniform();
    return params_.stormStart +
           params_.stormDuration * quantile /
                   static_cast<double>(params_.failures);
}

bool
FailureInjector::weightDuty(std::uint64_t k) const
{
    ouroAssert(k < params_.failures,
               "FailureInjector: index out of range");
    Rng rng(failureSeed(params_.seed, k));
    rng.uniform(); // draw 1: time jitter
    // Draw 2: the duty coin.
    return rng.uniform() < params_.weightFailureFraction;
}

std::size_t
FailureInjector::pick(std::uint64_t k, std::size_t n) const
{
    ouroAssert(k < params_.failures,
               "FailureInjector: index out of range");
    ouroAssert(n > 0, "FailureInjector: empty candidate pool");
    Rng rng(failureSeed(params_.seed, k));
    rng.uniform(); // draw 1: time jitter
    rng.uniform(); // draw 2: duty coin
    // Draw 3: the victim pick.
    return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::uint64_t>(n) - 1));
}

} // namespace ouro
