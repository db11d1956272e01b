#include "service/arrival.hh"

#include <cmath>

namespace tvarak::service {

namespace {

/** Closed-loop limit: a request is always waiting (gap 1). */
class ClosedLoopArrivals : public ArrivalProcess
{
  public:
    Cycles nextGap() override { return 1; }
    const char *name() const override { return "closed-loop"; }
};

/**
 * Exponential gaps via inverse-transform sampling. nextDouble() is in
 * [0,1); 1-u is in (0,1] so the log is finite. Gaps round to whole
 * cycles and are clamped to >= 1 so time always advances.
 */
class PoissonArrivals : public ArrivalProcess
{
  public:
    explicit PoissonArrivals(const ArrivalParams &p)
        : rng_(p.seed), meanGap_(p.meanGapCycles)
    {}

    Cycles nextGap() override
    {
        double u = rng_.nextDouble();
        double gap = -meanGap_ * std::log(1.0 - u);
        auto cycles = static_cast<Cycles>(std::llround(gap));
        return cycles < 1 ? 1 : cycles;
    }

    const char *name() const override { return "poisson"; }

  private:
    Rng rng_;
    double meanGap_;
};

/**
 * ON-OFF bursts with the same long-run offered rate as the Poisson
 * stream. A burst holds a geometric number of arrivals (mean
 * kBurstMeanLen) spaced kBurstGapFactor * meanGap apart; the OFF gap
 * between bursts makes up the deficit so that over one mean-length
 * burst the average gap equals meanGap:
 *
 *   offGap = B * meanGap - (B - 1) * intraGap      (B = kBurstMeanLen)
 *
 * i.e. B arrivals still span B mean gaps on average, they are just
 * front-loaded. The instantaneous rate inside a burst is
 * 1/kBurstGapFactor times the offered rate, which is what stresses the
 * queue and separates synchronous from deferred redundancy at p999.
 */
class BurstyArrivals : public ArrivalProcess
{
  public:
    explicit BurstyArrivals(const ArrivalParams &p)
        : rng_(p.seed), meanGap_(p.meanGapCycles),
          continueProb_(1.0 - 1.0 / kBurstMeanLen)
    {
        double intra = kBurstGapFactor * meanGap_;
        intraGap_ = clampGap(intra);
        double off = kBurstMeanLen * meanGap_ -
            (kBurstMeanLen - 1.0) * intra;
        offGap_ = clampGap(off);
    }

    Cycles nextGap() override
    {
        if (inBurst_ && rng_.nextBool(continueProb_)) {
            return intraGap_;
        }
        // Burst ended (or first call): pay the OFF gap, start a new
        // burst whose first arrival rides on that gap.
        inBurst_ = true;
        return offGap_;
    }

    const char *name() const override { return "bursty"; }

  private:
    static Cycles clampGap(double gap)
    {
        auto cycles = static_cast<Cycles>(std::llround(gap));
        return cycles < 1 ? 1 : cycles;
    }

    Rng rng_;
    double meanGap_;
    double continueProb_;
    Cycles intraGap_;
    Cycles offGap_;
    bool inBurst_ = false;
};

}  // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Bursty: return "bursty";
    }
    return "?";
}

bool
parseArrivalKind(const std::string &name, ArrivalKind &out)
{
    if (name == "poisson") {
        out = ArrivalKind::Poisson;
        return true;
    }
    if (name == "bursty") {
        out = ArrivalKind::Bursty;
        return true;
    }
    return false;
}

std::unique_ptr<ArrivalProcess>
makeArrivalProcess(const ArrivalParams &p)
{
    if (p.meanGapCycles <= 0.0) {
        return std::make_unique<ClosedLoopArrivals>();
    }
    switch (p.kind) {
      case ArrivalKind::Poisson:
        return std::make_unique<PoissonArrivals>(p);
      case ArrivalKind::Bursty:
        return std::make_unique<BurstyArrivals>(p);
    }
    return std::make_unique<PoissonArrivals>(p);
}

}  // namespace tvarak::service
