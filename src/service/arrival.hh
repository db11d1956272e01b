/**
 * @file
 * Open-loop arrival processes for the request service front-end.
 *
 * An ArrivalProcess hands out inter-arrival gaps in simulated core
 * cycles; the dispatcher accumulates them into absolute arrival
 * timestamps that do not depend on how fast requests are served —
 * that is what makes the load *open-loop*: a saturated server keeps
 * receiving requests and the backlog (and therefore tail latency)
 * grows, exactly like a production front-end behind a load balancer.
 *
 * Two processes cover the paper-adjacent space:
 *
 *  - Poisson: exponential gaps with mean 1/lambda, the memoryless
 *    arrival stream every queueing result is stated against.
 *  - Bursty (ON-OFF): geometric-length bursts of closely spaced
 *    arrivals separated by long OFF gaps, with the *same long-run
 *    offered rate* as the Poisson stream — so sweeping the two at one
 *    offered load isolates the cost of burstiness at the tail.
 *
 * All randomness comes from the seeded sim/rng generator: the same
 * seed produces byte-identical arrival streams (and therefore
 * byte-identical service statistics) on every run.
 */

#pragma once

#include <memory>
#include <string>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace tvarak::service {

enum class ArrivalKind {
    Poisson,  //!< exponential inter-arrival gaps
    Bursty,   //!< ON-OFF bursts at the same long-run rate
};

/** CLI spelling of @p kind ("poisson" / "bursty"). */
const char *arrivalKindName(ArrivalKind kind);

/** Parse a CLI spelling. @return false if @p name is unknown. */
bool parseArrivalKind(const std::string &name, ArrivalKind &out);

struct ArrivalParams {
    ArrivalKind kind = ArrivalKind::Poisson;
    /**
     * Mean inter-arrival gap in core cycles (1 / offered rate).
     * 0 selects the closed-loop limit: every request is ready the
     * moment a server frees up (gap 1), used to measure capacity.
     */
    double meanGapCycles = 0.0;
    std::uint64_t seed = 1;
};

/** @name Bursty (ON-OFF) shape */
/**@{*/
/** Mean arrivals per ON burst (geometric). */
constexpr double kBurstMeanLen = 16.0;
/** Intra-burst gap as a fraction of the mean gap (< 1). */
constexpr double kBurstGapFactor = 0.25;
/**@}*/

class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Gap to the next arrival, in cycles (>= 1). */
    virtual Cycles nextGap() = 0;

    virtual const char *name() const = 0;
};

/** Build the process @p p describes (closed-loop when meanGapCycles
 *  is 0, regardless of kind). */
std::unique_ptr<ArrivalProcess> makeArrivalProcess(const ArrivalParams &p);

}  // namespace tvarak::service
