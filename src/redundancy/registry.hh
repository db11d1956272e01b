/**
 * @file
 * The pluggable redundancy-design layer.
 *
 * A `Design` owns one redundancy design's complete behaviour across
 * the simulator: the hardware-side `MemController` hook invoked by
 * MemorySystem at the LLC/NVM boundary (fill verification, writeback
 * redundancy update, diff capture, victim handling, degraded-read
 * participation), the software-side `RedundancyScheme` run at
 * transaction commit, the LLC way-partition reservation, and the
 * policy queries that DaxFs, the scrubber and the fault tool key off.
 *
 * Designs live in a string-keyed registry that config, CLI, bench,
 * trace and fault tooling all resolve through: `--design vilamb`
 * works everywhere, and each Fig-9 ablation point is a registered
 * `tvarak-*` variant that owns its TvarakLadder point. A run, a
 * figure row and a tool's output are keyed by the registered Design
 * itself, so variants keep their own identity end to end.
 *
 * `DesignKind` is only the design byte of the trace header: the
 * TraceWriter stores it and designOf()/isRegisteredKind() decode it.
 * This translation unit pair is the only place allowed to switch or
 * compare on it (lint rule R8).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace tvarak {

class MemorySystem;
class RedundancyScheme;

/**
 * The frozen design byte of the trace header. Several registered
 * designs share one value (the Fig-9 variants and the RS n+k designs
 * are all Tvarak), so it names a design family, never a run: results
 * are keyed by the Design object.
 */
enum class DesignKind {
    /** No redundancy maintenance at all. */
    Baseline,
    /** Hardware offload at the LLC banks (the paper's contribution). */
    Tvarak,
    /** Software object-granular checksums at transaction boundary
     *  (Pangolin-like). */
    TxBObjectCsums,
    /** Software page-granular checksums at transaction boundary
     *  (Mojim/HotPot-like). */
    TxBPageCsums,
    /** Software page-granular checksums batched over epochs
     *  (Vilamb, Kateja et al. 2020). */
    Vilamb,
};

/**
 * Hardware hook a Design installs at the LLC/NVM boundary. The base
 * class is a concrete null object — every hook is a charge-free no-op,
 * which is exactly the memory-controller behaviour of the designs
 * without controller hardware (Baseline and the software schemes).
 *
 * All addresses are NVM-global line addresses (media offsets).
 */
class MemController
{
  public:
    virtual ~MemController() = default;

    /**
     * A line was just read from NVM media into the LLC. May verify
     * and repair @p media in place; verification overlaps data
     * delivery, so it costs the loading thread no cycles.
     */
    virtual void fillLine(std::size_t bank, Addr nvmAddr,
                          std::uint8_t *media)
    {
        (void)bank;
        (void)nvmAddr;
        (void)media;
    }

    /**
     * An LLC line transitioned clean->dirty (or took new dirty data).
     * @return the address of another line whose captured diff was
     *         evicted to make room — the caller must write that line
     *         back (forced writeback) and mark it clean.
     */
    virtual std::optional<Addr> captureDirty(std::size_t bank, Addr nvmAddr)
    {
        (void)bank;
        (void)nvmAddr;
        return std::nullopt;
    }

    /**
     * A dirty line is being written back from the LLC to NVM media;
     * @p newData is the 64 B about to land. @p forcedByDiffEviction is
     * true when the writeback was forced by captureDirty() evicting
     * this line's diff (the diff value is handed over in that case).
     */
    virtual void writeback(std::size_t bank, Addr nvmAddr,
                           const std::uint8_t *newData,
                           bool forcedByDiffEviction)
    {
        (void)bank;
        (void)nvmAddr;
        (void)newData;
        (void)forcedByDiffEviction;
    }

    /** A (clean) LLC line was evicted; drop any per-line state. */
    virtual void dropVictim(std::size_t bank, Addr nvmAddr)
    {
        (void)bank;
        (void)nvmAddr;
    }

    /**
     * A degraded read reconstructed @p media for @p nvmAddr; verify it
     * if the design can. @return demand-path cycles.
     */
    virtual Cycles verifyReconstructed(std::size_t bank, Addr nvmAddr,
                                       std::uint8_t *media)
    {
        (void)bank;
        (void)nvmAddr;
        (void)media;
        return 0;
    }

    /**
     * True iff the design maintains @p nvmAddr's redundancy in the
     * at-rest (media) world, so stripe members for reconstruction must
     * be read from media rather than the current-value store.
     */
    virtual bool atRestLine(Addr nvmAddr)
    {
        (void)nvmAddr;
        return false;
    }

    /**
     * Data page @p nvmPage was just written at rest
     * (MemorySystem::writeAtRest, from DaxFs::initialize): write the
     * redundancy that writebacks of its lines would have left at
     * rest, through MemorySystem::writeAtRest. Untimed. The null
     * controller maintains none.
     */
    virtual void coverAtRest(Addr nvmPage) { (void)nvmPage; }
};

/** How a design detects at-rest corruption (keys the fault tool's
 *  detect/repair strategy). */
enum class FaultDetection {
    None,        //!< no detection: corruption is expected to be silent
    FillVerify,  //!< per-fill checksum verification (TVARAK)
    PageScrub,   //!< page-checksum scrubbing (TxB-Page, Vilamb)
    ObjectSweep, //!< object-checksum sweep + parity scrub (TxB-Object)
};

/**
 * One redundancy design: the unified behaviour bundle behind a
 * registry name. Stateless and immutable — a single instance serves
 * every machine; per-machine state lives in the vended MemController
 * and RedundancyScheme objects.
 */
class Design
{
  public:
    virtual ~Design() = default;

    Design(const Design &) = delete;
    Design &operator=(const Design &) = delete;

    /** Trace-header byte (shared by design variants). */
    DesignKind kind() const { return kind_; }

    /** Registry key: lowercase CLI spelling, e.g. "txb-page-csums". */
    const std::string &cliName() const { return cliName_; }

    /** Report/display spelling, e.g. "TxB-Page-Csums". */
    const char *displayName() const { return displayName_.c_str(); }

    /**
     * Force design-owned SimConfig fields (applied to MemorySystem's
     * private config copy before anything reads it). Only the
     * Reed-Solomon designs use it, to pin their n+k array shape.
     */
    virtual void adjustConfig(SimConfig &cfg) const { (void)cfg; }

    /**
     * The design's point on the Fig-9 ladder, which MemorySystem hands
     * to the TVARAK engine. Designs without controller hardware never
     * drive the engine and keep the full-TVARAK default.
     */
    virtual TvarakLadder tvarakLadder() const
    {
        return TvarakLadder::DataDiffs;
    }

    /** LLC ways per bank the design's hardware reserves (evaluated
     *  after adjustConfig). */
    virtual std::size_t reservedLlcWays(const SimConfig &cfg) const
    {
        (void)cfg;
        return 0;
    }

    /** Hardware-side hook; the default is the null controller. */
    virtual std::unique_ptr<MemController>
    makeController(MemorySystem &mem) const;

    /** Software-side scheme; nullptr = no transaction-commit work. */
    virtual std::unique_ptr<RedundancyScheme>
    makeScheme(MemorySystem &mem) const;

    /** @name Policy queries (filesystem / scrubber / fault tool) */
    /**@{*/
    /** Redundancy of DAX-mapped data lives in the engine's at-rest
     *  world (cache-line checksums + media parity). */
    virtual bool engineCoversDaxData() const { return false; }
    /** Mapped files keep redundancy coverage, so the scrubber may
     *  verify/repair them while mapped. */
    virtual bool coversMappedFiles() const { return false; }
    /** Writes proceed while a DIMM is down (redundancy updates are
     *  dropped or unnecessary); false = the campaign pauses writes. */
    virtual bool absorbsWritesWhileDegraded() const { return false; }
    /** Cross-DIMM parity is maintained for mapped data, so DIMM loss
     *  is survivable. */
    virtual bool maintainsMappedParity() const { return false; }
    /**
     * Concurrent whole-DIMM losses the design's redundancy can
     * reconstruct through without data loss. 0 for designs with no
     * cross-DIMM parity, 1 for the single-XOR geometries, k for the
     * Reed-Solomon n+k designs. Fault schedules that fail more DIMMs
     * at once than this must expect *detected* loss, never silence.
     */
    virtual std::size_t survivableFailures() const
    {
        return maintainsMappedParity() ? 1 : 0;
    }
    /** Corruptions are caught on the read path (transient misdirected
     *  reads are detectable events, not silent). */
    virtual bool detectsTransientReads() const { return false; }
    /** Detect/repair strategy for at-rest corruption. */
    virtual FaultDetection faultDetection() const
    {
        return FaultDetection::None;
    }
    /**@}*/

  protected:
    Design(DesignKind kind, std::string cliName, std::string displayName)
        : kind_(kind), cliName_(std::move(cliName)),
          displayName_(std::move(displayName))
    {}

  private:
    DesignKind kind_;
    std::string cliName_;
    std::string displayName_;
};

/** @name The design registry */
/**@{*/

/**
 * Add @p design to the registry (appended: iteration order is
 * registration order). Fatal if the name (cliName or displayName,
 * case-insensitive) collides with a registered design. The built-in
 * designs are registered on first registry access, in this order:
 * baseline, tvarak, txb-object-csums, txb-page-csums, vilamb,
 * tvarak-naive, tvarak-no-red-cache, tvarak-no-diffs, tvarak-rs4+2,
 * tvarak-rs6+2.
 */
void registerDesign(const Design *design);

/** Every registered design, in stable registration order. */
const std::vector<const Design *> &allRegisteredDesigns();

/** The four paper designs, in paper order (Baseline, Tvarak,
 *  TxB-Object-Csums, TxB-Page-Csums). */
std::vector<const Design *> paperDesigns();

/** Case-insensitive lookup by cliName or displayName; nullptr if
 *  unknown. */
const Design *findDesign(const std::string &name);

/** The canonical design for @p kind (the first registered with it —
 *  Fig-9 variants share DesignKind::Tvarak and are never returned).
 *  Fatal on an invalid enum value. */
const Design &designOf(DesignKind kind);

/** True iff @p kind names a registered design (trace-header check). */
bool isRegisteredKind(DesignKind kind);

/** Comma-separated cliNames of every registered design (CLI errors). */
std::string registeredNameList();

/**@}*/

}  // namespace tvarak
