/**
 * @file
 * MemorySystem: the execution-driven memory hierarchy all workloads
 * run against, and the integration point for TVARAK.
 *
 * Topology (Table III): per-core L1 and L2, a shared inclusive banked
 * LLC, DRAM, and the NVM array. The active redundancy design (a
 * `Design` from redundancy/registry.hh) reserves its LLC way
 * partitions via reservedLlcWays() and installs a `MemController`
 * hook at the LLC<->NVM boundary: under the TVARAK design that hook
 * verifies every NVM->LLC fill of a DAX line, updates redundancy on
 * every LLC->NVM writeback and captures diffs on clean->dirty LLC
 * transitions. Designs without controller hardware install the null
 * controller and get the full LLC (software schemes issue their
 * redundancy work as ordinary timed accesses).
 *
 * Functional model: caches carry tags/state for timing; *current*
 * values live in flat per-space stores (DRAM buffer, NVM
 * current-value buffer), while the NVM media (at-rest state, where
 * firmware bugs act) is written only at writeback and read at fill
 * time. A fill therefore really observes whatever the (possibly
 * buggy) firmware returns, and TVARAK's verification really catches
 * it. Virtual addresses below kDaxBase are identity-mapped DRAM; DAX
 * addresses translate through a page table maintained by DaxFs.
 *
 * Timing model (documented in DESIGN.md): loads charge the demand
 * path latency to the issuing thread; stores charge
 * storeIssueCycles (store-buffer retirement); writebacks and
 * redundancy updates are off the critical path but consume NVM
 * occupancy and energy; reported runtime is
 * max(slowest thread, busiest DIMM).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stripe.hh"
#include "core/tvarak.hh"
#include "layout/layout.hh"
#include "mem/cache.hh"
#include "nvm/nvm.hh"
#include "sim/config.hh"
#include "sim/hostmem.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tvarak {

namespace trace {
class TraceSink;
}  // namespace trace

class Design;
class MemController;

/** Where the at-rest checksums of DAX-mapped data pages live. */
enum class DaxCsumFormat {
    /** The design's engine does not cover DAX data: the page checksum
     *  slot keeps what software last wrote, and the DAX-CL slots keep
     *  their map-time values. */
    Software,
    /** The engine keeps one DAX-CL checksum per line; the page
     *  checksum slot is held at zero while the page is mapped. */
    Line,
    /** Naive TVARAK: the engine keeps the page checksum slot current
     *  and never uses the DAX-CL slots, which stay zero. */
    Page,
};

class MemorySystem final : private StripeView::Source
{
  public:
    /** Run under @p design (a registered Design drives all
     *  design-specific behaviour; see redundancy/registry.hh). */
    MemorySystem(const SimConfig &cfg, const Design &design);
    ~MemorySystem();

    /** @name Timed access API (what workloads call) */
    /**@{*/
    void read(int tid, Addr vaddr, void *buf, std::size_t len);
    void write(int tid, Addr vaddr, const void *buf, std::size_t len);
    std::uint64_t read64(int tid, Addr vaddr);
    void write64(int tid, Addr vaddr, std::uint64_t value);
    std::uint32_t read32(int tid, Addr vaddr);
    void write32(int tid, Addr vaddr, std::uint32_t value);
    /** Charge pure compute cycles to a thread. */
    void compute(int tid, Cycles cycles);
    /** Charge software checksum computation over @p bytes. */
    void computeChecksum(int tid, std::size_t bytes);
    /**@}*/

    /** @name Untimed functional access (setup & assertions) */
    /**@{*/
    /** Read the authoritative current value (cache-coherent view). */
    void peek(Addr vaddr, void *buf, std::size_t len) const;
    /**
     * Write bytes functionally. Allowed for DRAM only: NVM content
     * must be produced through timed writes (or DaxFs I/O) so that
     * media, checksums and parity stay consistent.
     */
    void poke(Addr vaddr, const void *buf, std::size_t len);
    /**@}*/

    /** Bump-allocate DRAM for volatile application state. */
    Addr dramAlloc(std::size_t bytes, std::size_t align = kLineBytes);

    /** @name DAX page-table management (used by DaxFs) */
    /**@{*/
    /** Map DAX virtual page index @p vpage to NVM-global @p nvmPage. */
    void mapDaxPage(std::size_t vpage, Addr nvmPage);
    void unmapDaxPage(std::size_t vpage);
    /** Virtual address of DAX virtual page index @p vpage. */
    static Addr daxVaddr(std::size_t vpage)
    {
        return kDaxBase + static_cast<Addr>(vpage) * kPageBytes;
    }
    /** Translate; returns false if unmapped/out of range. */
    bool translate(Addr vaddr, Addr &paddr, bool &isNvm) const;
    /**@}*/

    /** @name Whole-DIMM failure lifecycle (tentpole of the fault model)
     *  failDimm() kills a device mid-workload: its media content is
     *  gone, cached lines survive in SRAM, and every subsequent fill
     *  of a lost line is reconstructed on the fly from cross-DIMM
     *  parity + surviving data (a *degraded read*, charged one device
     *  latency since the surviving DIMMs are read in parallel).
     *  replaceDimm() installs a fresh device; the RebuildEngine
     *  (src/redundancy/rebuild.*) then sweeps it back to full
     *  redundancy while the workload keeps running. */
    /**@{*/
    void failDimm(std::size_t dimm);
    void replaceDimm(std::size_t dimm);
    /**
     * Best-effort reconstruction of @p nvmAddr's content without its
     * home DIMM, through the stripe view: data and parity lines are
     * decoded from their stripe survivors, read in the TVARAK
     * engine's at-rest world when the stripe has a registered page
     * and in the current-value world otherwise. Metadata is not
     * parity protected and comes back as poison.
     *
     * @param charge  account the surviving-DIMM reads (energy,
     *                occupancy) — true on architectural paths, false
     *                for untimed maintenance.
     * @return false iff the content is unrecoverable (metadata, or
     *         more stripe members lost than parity covers).
     */
    bool reconstructLine(Addr nvmAddr, std::uint8_t *out, bool charge);
    /**
     * Install @p data as the current value of @p nvmAddr unless some
     * cache still holds the line (then the cached value is newer).
     * Used by the rebuild engine as it un-degrades lines.
     */
    void refreshCurIfUncached(Addr nvmAddr, const std::uint8_t *data);
    /**
     * Degraded-aware untimed read of data line @p nvmAddr in its
     * redundancy world (at-rest media for TVARAK-registered lines,
     * current value otherwise); reconstructs if the line is degraded.
     * Used by the rebuild engine to recompute checksum metadata.
     */
    void rebuildRead(Addr nvmAddr, std::uint8_t *out);
    /**@}*/

    /** Write back every dirty line everywhere (battery flush). */
    void flushAll();

    /**
     * flushAll() followed by dropping every (now clean) cached line
     * everywhere — models a cold restart. Subsequent reads re-fill
     * from the NVM media through the firmware.
     *
     * The current-value store is then re-synced with the media: every
     * non-degraded line equals its media bytes and every degraded
     * line its reconstruction (refreshDegradedCurrent). Only pages
     * marked since the previous sync can differ, so only those are
     * copied and the cost is proportional to the pages written since
     * the last drop, not to the media size. The rule that keeps this
     * exact: any byte written to the media (NvmDimm marks it) or to
     * the current-value store (this class calls NvmArray::markPage)
     * marks its page. The one exception, plain stores, is argued at
     * the store in accessLine.
     */
    void dropCaches();

    /**
     * Re-load the current-value store from the NVM media for @p len
     * bytes at @p vaddr (used after out-of-band recovery repaired the
     * media, so cached views reflect the repaired bytes). The touched
     * lines must be clean.
     */
    void refreshFromMedia(Addr vaddr, std::size_t len);

    /** @name Writes at rest (cold-start initialisation, untimed)
     *  DaxFs::initialize writes file contents straight into the state
     *  that writebacks followed by dropCaches would leave: media,
     *  current values and the design's redundancy at rest. */
    /**@{*/
    /**
     * Write @p len bytes at NVM-global @p nvmAddr to the media and to
     * the current-value store (their pages are marked). Panics if a
     * cache holds one of the lines dirty, since its writeback would
     * overwrite the bytes; clean copies stay valid, because data
     * caches hold tags only.
     */
    void writeAtRest(Addr nvmAddr, const void *buf, std::size_t len);
    /** Restore the redundancy at rest that writebacks of data page
     *  @p nvmPage would leave under this design (its controller's
     *  MemController::coverAtRest). */
    void coverAtRest(Addr nvmPage);
    /** Encode @p page's stripe from media (StripeView::encodeFromMedia
     *  with the machine's codec). */
    void encodeStripeFromMedia(Addr page, std::vector<std::uint8_t> &stripe)
    {
        stripes_.encodeFromMedia(page, stripe);
    }
    /**@}*/

    /** Invalidate-without-writeback is deliberately not offered:
     *  redundancy consistency requires writebacks. */

    /** The active design object (policy queries, scheme vending). */
    const Design &designObj() const { return *design_; }
    /** Checksum format of DAX-mapped data under this design and its
     *  Fig-9 ladder point: the one answer daxMap, the scrubber and
     *  the rebuild engine share. */
    DaxCsumFormat daxCsumFormat() const;
    const SimConfig &config() const { return cfg_; }
    Stats &stats() { return stats_; }
    const Stats &stats() const { return stats_; }
    Layout &layout() { return layout_; }
    NvmArray &nvmArray() { return nvm_; }
    TvarakEngine &tvarak() { return engine_; }

    /** LLC data-partition ways actually available to applications. */
    std::size_t llcDataWays() const { return llcDataWays_; }

    /**
     * The machine's one Reed-Solomon codec for this layout's n+k
     * geometry (k = 1 is plain XOR parity). Built with the machine;
     * the TVARAK engine, degraded reads, rebuild sweeps and the
     * software schemes all share it.
     */
    const RsCode &rsCodec() const { return stripes_.codec(); }

    /** @name Access-trace recording (src/trace/)
     *  The sink observes the timed API; when unset (the default) the
     *  only overhead is one pointer compare per call. Components that
     *  record higher-level events (DaxFs, PmemPool, RawCoverage) reach
     *  the sink through here too. */
    /**@{*/
    void setTraceSink(trace::TraceSink *sink) { traceSink_ = sink; }
    trace::TraceSink *traceSink() const { return traceSink_; }
    /**@}*/

    /** @name Machine checkpointing
     *  Save/restore the NVM at-rest image (see NvmArray). Restore
     *  re-syncs the current-value store; caches must be cold. */
    /**@{*/
    bool saveNvmImage(const std::string &path);
    bool loadNvmImage(const std::string &path);
    /**@}*/

  private:
    struct Translation {
        Addr paddr;
        bool isNvm;
    };
    Translation translateOrDie(Addr vaddr) const;

    std::size_t bankOf(Addr paddr) const
    {
        return static_cast<std::size_t>(lineNumber(paddr)) %
            llc_.size();
    }
    static Addr nvmGlobal(Addr paddr) { return paddr - kNvmPhysBase; }

    /** Pointer into the current-value store for @p paddr. */
    std::uint8_t *funcPtr(Addr paddr, bool isNvm);
    const std::uint8_t *funcPtr(Addr paddr, bool isNvm) const;

    /** One line-granular timed access. */
    void accessLine(int tid, Addr vaddr, std::size_t offset,
                    std::size_t len, void *buf, bool isWrite);

    /**
     * Ensure @p paddr is present in the LLC, performing the fill (and
     * TVARAK verification) if needed; handles coherence with other
     * cores' private caches.
     * @return pointer to the LLC line; adds demand latency to @p lat.
     */
    Cache::Line *llcEnsure(int core, Addr paddr, bool isNvm, bool isWrite,
                           Cycles &lat);

    /** Mark an LLC line dirty (captures TVARAK diffs). */
    void markLlcDirty(std::size_t bank, Cache::Line &line);

    /** Next-line prefetch into the LLC on sequential demand misses;
     *  stops at the 4 KB page boundary. Off the demand path.
     *  @return true if any line was actually prefetched (the caller's
     *  probed Line may have been reshuffled and must be re-probed). */
    bool maybePrefetch(std::size_t core, Addr paddr, bool isNvm);
    /** Fill one line into the LLC without demand-latency charging. */
    void prefetchLine(Addr paddr, bool isNvm);

    /** Handle an eviction from an LLC data partition. */
    void llcHandleVictim(std::size_t bank, const Cache::Victim &victim);

    /** Degraded-mode fill of @p g: reconstruct instead of reading the
     *  dead DIMM. @return demand-path cycles. */
    Cycles degradedFill(std::size_t bank, Addr g, std::uint8_t *media);

    /** The current-value source policy: one stripe member's value
     *  in the world that maintains its redundancy (at rest for
     *  TVARAK-registered pages, current otherwise). */
    void memberLine(Addr nvmAddr, bool parity,
                    std::uint8_t *out) override;

    /** True iff @p line's stripe has a TVARAK-registered member, i.e.
     *  the engine maintains the stripe's parity in the at-rest world
     *  (raw superblock writes keep that invariant too). */
    bool stripeIsEngineWorld(Addr line);

    /** Re-derive current values of all degraded lines (cold caches). */
    void refreshDegradedCurrent();

    /** Write one dirty NVM line back to media (controller update
     *  hook). @p forcedByDiffEviction marks writebacks forced by a
     *  diff-partition eviction (the controller uses the handed-over
     *  diff instead of its stored one). */
    void writebackNvmLine(std::size_t bank, Addr paddr,
                          bool forcedByDiffEviction);

    /** Is this NVM-global address checksum/parity storage? */
    bool isRedundancyAddr(Addr nvmAddr) const;

    SimConfig cfg_;
    const Design *design_;
    std::unique_ptr<MemController> ctrl_;  //!< design's LLC/NVM hook
    Stats stats_;
    Layout layout_;
    NvmArray nvm_;
    StripeView stripes_;  //!< the one reconstruction path + codec
    TvarakEngine engine_;

    std::vector<Cache> l1_;   //!< per core
    std::vector<Cache> l2_;   //!< per core
    std::vector<Cache> llc_;  //!< per bank, data partition only
    std::size_t llcDataWays_;

    HostBuffer dram_;    //!< DRAM current values (huge-page backed)
    HostBuffer nvmCur_;  //!< NVM current values (huge-page backed)
    std::vector<Addr> daxPageTable_;    //!< vpage -> NVM page | kUnmapped
    std::vector<Addr> stripePages_;     //!< stripeIsEngineWorld scratch
    Addr dramBrk_;
    std::vector<std::uint64_t> lastMissLine_;  //!< per-core stride state
    trace::TraceSink *traceSink_ = nullptr;    //!< access-trace recorder

    static constexpr Addr kUnmapped = ~Addr{0};
};

}  // namespace tvarak

