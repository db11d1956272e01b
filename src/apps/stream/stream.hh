/**
 * @file
 * STREAM memory-bandwidth kernels on persistent arrays (paper
 * Section IV-F): Copy, Scale, Add, Triad. Each of 12 threads owns a
 * non-overlapping chunk of the a/b/c arrays; the baseline saturates
 * NVM bandwidth, which is why all redundancy designs show their
 * largest relative overheads here.
 *
 * setup() writes the input arrays at rest (DaxFs::initialize), so it
 * leaves no line cached. Factories close set-up with a dropCaches
 * (every one in the tree does), and the measured phase then starts
 * cold exactly as it did after timed initialisation. Without that
 * drop it also starts cold, where timed initialisation used to leave
 * the last thread's lines cached.
 */

#pragma once

#include <memory>

#include "harness/workload.hh"
#include "redundancy/raw_coverage.hh"

namespace tvarak {

class StreamWorkload final : public Workload
{
  public:
    enum class Kernel { Copy, Scale, Add, Triad };

    struct Params {
        Kernel kernel = Kernel::Copy;
        std::size_t chunkBytes = 2ull << 20;  //!< per array per thread
        std::size_t sliceLines = 2048;
    };

    StreamWorkload(MemorySystem &mem, DaxFs &fs, int tid,
                   RedundancyScheme *scheme, Params params);

    void setup() override;
    bool step() override;
    int tid() const override { return tid_; }
    std::string name() const override;

    static const char *kernelName(Kernel k);

  private:
    MemorySystem &mem_;
    DaxFs &fs_;
    int tid_;
    RedundancyScheme *scheme_;
    Params params_;
    Addr a_ = 0, b_ = 0, c_ = 0;
    std::size_t lines_ = 0;
    std::size_t next_ = 0;
    std::unique_ptr<RawCoverage> coverage_;
};

}  // namespace tvarak

