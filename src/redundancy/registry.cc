/**
 * @file
 * The design registry: the single translation unit allowed to switch
 * over DesignKind (lint R8), and home of the concrete Design classes
 * and TVARAK's MemController implementation.
 */

#include "redundancy/registry.hh"

#include <cctype>

#include "checksum/checksum.hh"
#include "core/tvarak.hh"
#include "mem/memory_system.hh"
#include "redundancy/scheme.hh"
#include "redundancy/vilamb.hh"
#include "sim/log.hh"

namespace tvarak {

namespace {

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

// ------------------------------------------------ TVARAK's controller

/**
 * The hardware contribution of the paper: per-LLC-bank controllers
 * verifying DAX fills, capturing diffs on clean->dirty transitions
 * and updating checksums + parity at writeback. All heavy lifting
 * lives in TvarakEngine; this adapter scopes it to DAX lines.
 */
class TvarakMemController final : public MemController
{
  public:
    explicit TvarakMemController(MemorySystem &mem)
        : mem_(mem), engine_(mem.tvarak())
    {}

    void fillLine(std::size_t bank, Addr nvmAddr,
                  std::uint8_t *media) override
    {
        if (engine_.isDaxData(nvmAddr))
            engine_.verifyFill(bank, nvmAddr, media);
    }

    std::optional<Addr> captureDirty(std::size_t bank,
                                     Addr nvmAddr) override
    {
        if (!engine_.isDaxData(nvmAddr))
            return std::nullopt;
        return engine_.captureDiff(bank, nvmAddr);
    }

    void writeback(std::size_t bank, Addr nvmAddr,
                   const std::uint8_t *newData,
                   bool forcedByDiffEviction) override
    {
        if (!engine_.isDaxData(nvmAddr))
            return;
        TvarakEngine::DiffSource source;
        if (forcedByDiffEviction)
            source = TvarakEngine::DiffSource::EvictedDiff;
        else if (engine_.hasDiff(bank, nvmAddr))
            source = TvarakEngine::DiffSource::Stored;
        else
            source = TvarakEngine::DiffSource::None;
        engine_.updateRedundancy(bank, nvmAddr, newData, source);
    }

    void dropVictim(std::size_t bank, Addr nvmAddr) override
    {
        engine_.dropDiff(bank, nvmAddr);
    }

    Cycles verifyReconstructed(std::size_t bank, Addr nvmAddr,
                               std::uint8_t *media) override
    {
        if (!engine_.isDaxData(nvmAddr))
            return 0;
        return engine_.verifyReconstructed(bank, nvmAddr, media);
    }

    bool atRestLine(Addr nvmAddr) override
    {
        return engine_.isDaxData(nvmAddr);
    }

    void coverAtRest(Addr nvmPage) override
    {
        if (!engine_.isDaxData(nvmPage))
            return;
        // What updateRedundancy leaves once every line of the page has
        // been written back: its checksums (DAX-CL slots, or the page
        // slot at the naive point) match media, and every parity role
        // of its stripe is the encoding of the stripe's media.
        const Layout &layout = mem_.layout();
        if (mem_.daxCsumFormat() == DaxCsumFormat::Line) {
            engine_.initDaxClChecksums(nvmPage);
        } else {
            std::uint8_t page[kPageBytes];
            mem_.nvmArray().rawRead(nvmPage, page, kPageBytes);
            std::uint64_t csum = pageChecksum(page);
            writeRedundancy(layout.pageCsumAddr(nvmPage), &csum,
                            kChecksumBytes);
        }
        mem_.encodeStripeFromMedia(nvmPage, stripe_);
        for (std::size_t j = 0; j < layout.parityCount(); j++) {
            writeRedundancy(
                layout.parityPageOf(nvmPage, j),
                stripe_.data() + (layout.dataCount() + j) * kPageBytes,
                kPageBytes);
        }
    }

  private:
    /** Write redundancy bytes at rest; the engine's cached copies of
     *  their lines go (a dirty one panics). */
    void writeRedundancy(Addr nvmAddr, const void *buf, std::size_t len)
    {
        for (Addr l = lineBase(nvmAddr); l < nvmAddr + len; l += kLineBytes)
            engine_.dropRedLine(l);
        mem_.writeAtRest(nvmAddr, buf, len);
    }

    MemorySystem &mem_;
    TvarakEngine &engine_;
    std::vector<std::uint8_t> stripe_;  //!< coverAtRest's encode scratch
};

// ------------------------------------------------- concrete designs

class BaselineDesign final : public Design
{
  public:
    BaselineDesign() : Design(DesignKind::Baseline, "baseline", "Baseline")
    {}

    // No redundancy: nothing breaks when a write lands unprotected.
    bool absorbsWritesWhileDegraded() const override { return true; }
};

class TvarakDesign : public Design
{
  public:
    TvarakDesign() : TvarakDesign("tvarak", "Tvarak") {}

    std::size_t reservedLlcWays(const SimConfig &cfg) const override
    {
        std::size_t ways = 0;
        if (tvarakLadder() >= TvarakLadder::RedundancyCaching)
            ways += cfg.tvarak.redundancyWays;
        if (tvarakLadder() >= TvarakLadder::DataDiffs)
            ways += cfg.tvarak.diffWays;
        return ways;
    }

    std::unique_ptr<MemController>
    makeController(MemorySystem &mem) const override
    {
        return std::make_unique<TvarakMemController>(mem);
    }

    bool engineCoversDaxData() const override { return true; }
    bool coversMappedFiles() const override { return true; }
    bool absorbsWritesWhileDegraded() const override { return true; }
    bool maintainsMappedParity() const override { return true; }
    bool detectsTransientReads() const override { return true; }
    FaultDetection faultDetection() const override
    {
        return FaultDetection::FillVerify;
    }

  protected:
    TvarakDesign(std::string cliName, std::string displayName)
        : Design(DesignKind::Tvarak, std::move(cliName),
                 std::move(displayName))
    {}
};

/** A Fig-9 ablation point below full TVARAK: the same machinery,
 *  stopped at an earlier point of the cumulative ladder. */
class TvarakVariantDesign final : public TvarakDesign
{
  public:
    TvarakVariantDesign(std::string cliName, std::string displayName,
                        TvarakLadder ladder)
        : TvarakDesign(std::move(cliName), std::move(displayName)),
          ladder_(ladder)
    {}

    TvarakLadder tvarakLadder() const override { return ladder_; }

  private:
    TvarakLadder ladder_;
};

/**
 * A Reed-Solomon n+k geometry: full TVARAK machinery over a GF(2^8)
 * erasure code. adjustConfig pins the array shape — the design owns
 * its geometry, so every harness (bench, trace, fault, service) gets
 * a consistent n+k array just by naming the design.
 */
class TvarakRsDesign final : public TvarakDesign
{
  public:
    TvarakRsDesign(std::string cliName, std::string displayName,
                   std::size_t dimms, std::size_t parityDimms)
        : TvarakDesign(std::move(cliName), std::move(displayName)),
          dimms_(dimms), parityDimms_(parityDimms)
    {}

    void adjustConfig(SimConfig &cfg) const override
    {
        cfg.nvm.dimms = dimms_;
        cfg.nvm.parityDimms = parityDimms_;
    }

    std::size_t survivableFailures() const override
    {
        return parityDimms_;
    }

  private:
    std::size_t dimms_;
    std::size_t parityDimms_;
};

class TxBObjectDesign final : public Design
{
  public:
    TxBObjectDesign()
        : Design(DesignKind::TxBObjectCsums, "txb-object-csums",
                 "TxB-Object-Csums")
    {}

    std::unique_ptr<RedundancyScheme>
    makeScheme(MemorySystem &mem) const override
    {
        return std::make_unique<TxBObjectCsums>(mem);
    }

    bool maintainsMappedParity() const override { return true; }
    FaultDetection faultDetection() const override
    {
        return FaultDetection::ObjectSweep;
    }
};

class TxBPageDesign final : public Design
{
  public:
    TxBPageDesign()
        : Design(DesignKind::TxBPageCsums, "txb-page-csums",
                 "TxB-Page-Csums")
    {}

    std::unique_ptr<RedundancyScheme>
    makeScheme(MemorySystem &mem) const override
    {
        return std::make_unique<TxBPageCsums>(mem);
    }

    bool coversMappedFiles() const override { return true; }
    bool maintainsMappedParity() const override { return true; }
    FaultDetection faultDetection() const override
    {
        return FaultDetection::PageScrub;
    }
};

class VilambDesign final : public Design
{
  public:
    explicit VilambDesign(std::size_t epochCommits = 64)
        : Design(DesignKind::Vilamb, "vilamb", "Vilamb"),
          epochCommits_(epochCommits)
    {}

    std::unique_ptr<RedundancyScheme>
    makeScheme(MemorySystem &mem) const override
    {
        return std::make_unique<VilambAsyncCsums>(mem, epochCommits_);
    }

    // Same machine model and coverage surface as TxB-Page-Csums; the
    // difference is *when* the page work runs (epoch batches), which
    // is why campaigns must drain() before scrubbing.
    bool coversMappedFiles() const override { return true; }
    bool maintainsMappedParity() const override { return true; }
    FaultDetection faultDetection() const override
    {
        return FaultDetection::PageScrub;
    }

  private:
    std::size_t epochCommits_;
};

// ------------------------------------------------------ the registry

std::vector<const Design *> &
registryVec()
{
    static std::vector<const Design *> designs;
    return designs;
}

void
registerLocked(const Design *design)
{
    fatal_if(design == nullptr, "registerDesign(nullptr)");
    std::string cli = toLower(design->cliName());
    std::string display = toLower(design->displayName());
    for (const Design *d : registryVec()) {
        fatal_if(toLower(d->cliName()) == cli ||
                     toLower(d->displayName()) == display,
                 "duplicate design registration: '%s' collides with "
                 "registered design '%s'",
                 design->cliName().c_str(), d->cliName().c_str());
    }
    registryVec().push_back(design);
}

/** Register the built-ins exactly once, in stable paper-then-extras
 *  order, before any lookup. */
void
ensureBuiltins()
{
    static const bool once = [] {
        static const BaselineDesign baseline;
        static const TvarakDesign tvarak;
        static const TxBObjectDesign txbObject;
        static const TxBPageDesign txbPage;
        static const VilambDesign vilamb;
        // Fig 9 cumulative ablation points (naive -> +DAX-CL-csums ->
        // +red-caching; adding +data-diffs is full "tvarak").
        static const TvarakVariantDesign naive(
            "tvarak-naive", "Tvarak-Naive", TvarakLadder::Naive);
        static const TvarakVariantDesign noRedCache(
            "tvarak-no-red-cache", "Tvarak-No-Red-Cache",
            TvarakLadder::DaxClCsums);
        static const TvarakVariantDesign noDiffs(
            "tvarak-no-diffs", "Tvarak-No-Diffs",
            TvarakLadder::RedundancyCaching);
        // Reed-Solomon n+k geometries (double-failure survivable).
        static const TvarakRsDesign rs42("tvarak-rs4+2", "Tvarak-RS4+2",
                                         6, 2);
        static const TvarakRsDesign rs62("tvarak-rs6+2", "Tvarak-RS6+2",
                                         8, 2);
        registerLocked(&baseline);
        registerLocked(&tvarak);
        registerLocked(&txbObject);
        registerLocked(&txbPage);
        registerLocked(&vilamb);
        registerLocked(&naive);
        registerLocked(&noRedCache);
        registerLocked(&noDiffs);
        registerLocked(&rs42);
        registerLocked(&rs62);
        return true;
    }();
    (void)once;
}

}  // namespace

std::unique_ptr<MemController>
Design::makeController(MemorySystem &mem) const
{
    (void)mem;
    return std::make_unique<MemController>();
}

std::unique_ptr<RedundancyScheme>
Design::makeScheme(MemorySystem &mem) const
{
    (void)mem;
    return nullptr;
}

void
registerDesign(const Design *design)
{
    ensureBuiltins();
    registerLocked(design);
}

const std::vector<const Design *> &
allRegisteredDesigns()
{
    ensureBuiltins();
    return registryVec();
}

std::vector<const Design *>
paperDesigns()
{
    // lint:allow(R8) — registry-internal enumeration of the paper set.
    const DesignKind paper[] = {
        DesignKind::Baseline,
        DesignKind::Tvarak,
        DesignKind::TxBObjectCsums,
        DesignKind::TxBPageCsums,
    };
    std::vector<const Design *> out;
    for (DesignKind kind : paper)
        out.push_back(&designOf(kind));
    return out;
}

const Design *
findDesign(const std::string &name)
{
    ensureBuiltins();
    std::string key = toLower(name);
    for (const Design *d : allRegisteredDesigns()) {
        if (toLower(d->cliName()) == key ||
            toLower(d->displayName()) == key)
            return d;
    }
    return nullptr;
}

const Design &
designOf(DesignKind kind)
{
    for (const Design *d : allRegisteredDesigns())
        if (d->kind() == kind)
            return *d;
    fatal("designOf: invalid DesignKind %d", static_cast<int>(kind));
}

bool
isRegisteredKind(DesignKind kind)
{
    for (const Design *d : allRegisteredDesigns())
        if (d->kind() == kind)
            return true;
    return false;
}

std::string
registeredNameList()
{
    std::string out;
    for (const Design *d : allRegisteredDesigns()) {
        if (!out.empty())
            out += ", ";
        out += d->cliName();
    }
    return out;
}

}  // namespace tvarak
