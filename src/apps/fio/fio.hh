/**
 * @file
 * Fio-like synthetic file benchmark (paper Section IV-E).
 *
 * Sequential and random 64 B reads/writes through the libpmem-style
 * DAX path: each of 12 threads owns a non-overlapping region and no
 * cache line is accessed twice (paper Table II). The random pattern is
 * a multiplicative-permutation walk over the region's lines, which
 * visits every line exactly once with no spatial locality.
 *
 * The read patterns' resident data is written at rest in setup()
 * (DaxFs::initialize), so set-up leaves no line cached. Factories
 * close set-up with a dropCaches (every one in the tree does), and
 * the measured phase then starts cold exactly as it did after timed
 * initialisation. Without that drop it also starts cold, where timed
 * initialisation used to leave the last thread's lines cached.
 */

#pragma once

#include <memory>

#include "harness/workload.hh"
#include "redundancy/raw_coverage.hh"

namespace tvarak {

class FioWorkload final : public Workload
{
  public:
    enum class Pattern { SeqRead, SeqWrite, RandRead, RandWrite };

    struct Params {
        Pattern pattern = Pattern::SeqRead;
        std::size_t regionBytes = 4ull << 20;  //!< per thread (scaled)
        std::size_t sliceLines = 2048;
    };

    FioWorkload(MemorySystem &mem, DaxFs &fs, int tid,
                RedundancyScheme *scheme, Params params);

    void setup() override;
    bool step() override;
    int tid() const override { return tid_; }
    std::string name() const override;

    static const char *patternName(Pattern p);

  private:
    Addr lineAt(std::size_t i) const;

    MemorySystem &mem_;
    DaxFs &fs_;
    int tid_;
    RedundancyScheme *scheme_;
    Params params_;
    Addr base_ = 0;
    std::size_t lines_ = 0;
    std::size_t next_ = 0;
    std::size_t permStride_ = 0;
    std::unique_ptr<RawCoverage> coverage_;
};

}  // namespace tvarak

