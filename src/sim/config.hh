/**
 * @file
 * Simulation parameters.
 *
 * Defaults reproduce Table III of the TVARAK paper (ISCA 2020):
 * 12 Westmere-like cores at 2.27 GHz, 32 KB L1s, 256 KB L2s, a 24 MB
 * shared inclusive LLC in 12 x 2 MB 16-way banks, 6 DRAM DIMMs at 15 ns
 * and 4 NVM DIMMs at 60/150 ns read/write (Lee et al. PCM parameters),
 * and a TVARAK controller per LLC bank with a 4 KB on-controller cache,
 * 2 LLC ways reserved for redundancy caching and 1 way for data diffs.
 */

#pragma once

#include <cstddef>

#include "sim/types.hh"

namespace tvarak {

/**
 * The cumulative points of the paper's Fig-9 ablation ladder: TVARAK
 * is built from the naive controller of Section III one optimization
 * at a time, and each point keeps every optimization of the points
 * before it. A design owns its point (Design::tvarakLadder()); it is
 * not a machine parameter.
 */
enum class TvarakLadder {
    /** Page-granular checksums that read the whole page on every
     *  fill and writeback, no redundancy caching, old-data re-reads
     *  instead of diffs (tvarak-naive). */
    Naive,
    /** + cache-line granular DAX-CL checksums (tvarak-no-red-cache). */
    DaxClCsums,
    /** + redundancy caching: on-controller caches backed by an LLC
     *  way partition (tvarak-no-diffs). */
    RedundancyCaching,
    /** + data diffs kept in an LLC way partition: full TVARAK. */
    DataDiffs,
};

/** Parameters of one cache level. */
struct CacheParams {
    std::size_t sizeBytes;
    std::size_t ways;
    Cycles latency;          //!< access latency charged on a hit
    PicoJoules hitEnergy;    //!< per-hit energy (pJ)
    PicoJoules missEnergy;   //!< per-miss (tag probe + fill) energy (pJ)
};

/** DRAM timing/energy. The paper gives 15 ns reads/writes; it does not
 *  quote DRAM energy, so we document a 1.3 nJ/access assumption. */
struct DramParams {
    std::size_t sizeBytes = 512ull << 20;
    double accessNs = 15.0;
    PicoJoules accessEnergy = 1300.0;
};

/** NVM array parameters (Table III, from Lee et al. [37]). */
struct NvmParams {
    std::size_t dimms = 4;
    std::size_t dimmBytes = 512ull << 20;
    double readNs = 60.0;
    double writeNs = 150.0;
    PicoJoules readEnergy = 1600.0;   //!< 1.6 nJ
    PicoJoules writeEnergy = 9000.0;  //!< 9 nJ
    /**
     * Fraction of the device read/write latency for which an access
     * occupies the DIMM (bandwidth model). Internal banking and write
     * buffering let a DIMM overlap parts of concurrent accesses;
     * 1.0 = fully serialized. Writes overlap more (buffered).
     */
    double occupancyReadFactor = 0.02;
    double occupancyWriteFactor = 0.01;
    /**
     * Parity members per stripe (the k of an n+k code). 1 is the
     * paper's RAID-5 XOR geometry; k >= 2 selects the Reed-Solomon
     * designs. Set through Design::adjustConfig (tvarak-rs4+2 etc.),
     * not by hand — the value must match the active design's codec.
     */
    std::size_t parityDimms = 1;
};

/** TVARAK controller parameters (Table III). */
struct TvarakParams {
    /** On-controller redundancy cache size (per LLC bank). */
    std::size_t cacheBytes = 4096;
    std::size_t cacheWays = 8;
    Cycles cacheLatency = 1;
    PicoJoules cacheHitEnergy = 15.0;
    PicoJoules cacheMissEnergy = 33.0;
    /** Cycles for DAX address range matching (comparators). */
    Cycles rangeMatchLatency = 2;
    /** Cycles per checksum/parity computation or verification. */
    Cycles computeLatency = 1;
    /** LLC ways (out of llc.ways) reserved for caching redundancy. */
    std::size_t redundancyWays = 2;
    /** LLC ways reserved for storing data diffs. */
    std::size_t diffWays = 1;
};

/** Whole-machine configuration (defaults == Table III). */
struct SimConfig {
    std::size_t cores = 12;
    double coreGhz = 2.27;

    CacheParams l1{32 * 1024, 8, 4, 15.0, 33.0};
    CacheParams l2{256 * 1024, 8, 7, 46.0, 94.0};
    /** One LLC bank (paper: 12 banks of 2 MB, 16-way, 27 cycles). */
    CacheParams llcBank{2 * 1024 * 1024, 16, 27, 240.0, 500.0};
    std::size_t llcBanks = 12;

    DramParams dram;
    NvmParams nvm;
    TvarakParams tvarak;

    /**
     * Store latency charged on the issuing thread. Stores retire
     * through the store buffer in an OOO core, so beyond the issue
     * cycle only a fraction of the miss path lands on the critical
     * path (sustained store misses drain at a store-queue-limited
     * rate).
     */
    Cycles storeIssueCycles = 1;
    double storeMissLatencyFactor = 0.25;

    /**
     * Next-line LLC prefetch degree on sequentially-striding demand
     * misses (0 disables). Sequential workloads hide fill and
     * verification latency behind prefetches, exactly why the paper
     * sees near-zero TVARAK overhead for sequential access patterns.
     */
    std::size_t prefetchDegree = 4;

    /** Software checksum throughput, bytes per core cycle. Westmere
     *  has the SSE4.2 crc32 instruction (8 B per cycle sustained);
     *  used by the TxB schemes. */
    double swChecksumBytesPerCycle = 8.0;

    /** Convert nanoseconds to core cycles. */
    Cycles nsToCycles(double ns) const
    {
        return static_cast<Cycles>(ns * coreGhz + 0.5);
    }

    /** Sanity-check invariants (way counts, partition sizes, ...). */
    void validate() const;
};

}  // namespace tvarak

