#include "redundancy/scheme.hh"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "checksum/checksum.hh"
#include "checksum/gf256.hh"
#include "kernels/kernels.hh"
#include "sim/log.hh"

namespace tvarak {

void
RedundancyScheme::recomputeParityLine(int tid, Addr vline)
{
    Addr paddr;
    bool is_nvm;
    panic_if(!mem_.translate(vline, paddr, is_nvm) || !is_nvm,
             "parity recompute on a non-NVM address");
    Addr g = paddr - kNvmPhysBase;
    const Layout &layout = mem_.layout();

    // parity = code over the stripe's data lines at this page offset;
    // updating in place forfeits diff-based updates (paper Section IV),
    // so the siblings must be read: the dirty line first, then the
    // siblings in coding order. A fused kernel sequence per data
    // member feeds every parity role its coefficient-weighted
    // contribution (role 0's coefficient is 1: plain XOR) in one pass
    // over the line, with the machine's one codec.
    const RsCode &rs = mem_.rsCodec();
    const std::size_t k = layout.parityCount();
    std::vector<Addr> pages;
    layout.stripeDataPages(g, pages);
    std::size_t offset = lineInPage(g) * kLineBytes;
    std::uint8_t own[kLineBytes];
    mem_.read(tid, lineBase(vline), own, kLineBytes);
    parity_.resize(k);
    for (auto &p : parity_)
        p.fill(0);
    for (std::size_t i = 0; i < pages.size(); i++) {
        std::uint8_t sib[kLineBytes];
        const std::uint8_t *line = own;
        if (pages[i] != pageBase(g)) {
            mem_.read(tid, nvmDirectVaddr(pages[i] + offset), sib,
                      kLineBytes);
            line = sib;
        }
        for (std::size_t j0 = 0; j0 < k; j0 += kernels::kSeqMaxRoles) {
            std::size_t jn = std::min(k, j0 + kernels::kSeqMaxRoles);
            kernels::KernelSequence seq;
            seq.source(line);
            for (std::size_t j = j0; j < jn; j++)
                seq.parityGfMac(parity_[j].data(), rs.coeff(j, i));
            seq.run();
        }
    }
    for (std::size_t j = 0; j < k; j++) {
        mem_.write(tid, nvmDirectVaddr(layout.parityLineOf(g, j)),
                   parity_[j].data(), kLineBytes);
    }
}

namespace {

/** Unique dirty lines across the commit's ranges. */
std::vector<Addr>
dirtyLines(const std::vector<DirtyRange> &dirty, bool appDataOnly)
{
    std::unordered_set<Addr> seen;
    std::vector<Addr> lines;
    for (const DirtyRange &r : dirty) {
        if (appDataOnly && !r.appData)
            continue;
        for (Addr a = lineBase(r.vaddr); a < r.vaddr + r.len;
             a += kLineBytes) {
            if (seen.insert(a).second)
                lines.push_back(a);
        }
    }
    return lines;
}

}  // namespace

void
TxBObjectCsums::onCommit(int tid, const std::vector<DirtyRange> &dirty)
{
    // Patch each touched object's checksum *incrementally*, as
    // Pangolin does: the timed cost covers only the modified range
    // (read through the caches — typically hits — plus compute over
    // old+new bytes), never the whole object. The stored value is the
    // full-object CRC (the incremental CRC patch is numerically exact
    // in hardware; we recompute it functionally via an untimed peek).
    // Checksum slots are data-region writes, so their lines join the
    // parity recomputation set.
    std::unordered_set<Addr> csummed;
    std::unordered_set<Addr> extra_lines;
    std::vector<std::uint8_t> buf;
    for (const DirtyRange &r : dirty) {
        if (r.csumVaddr == 0)
            continue;
        // Timed incremental cost, per range.
        buf.resize(r.len);
        mem_.read(tid, r.vaddr, buf.data(), r.len);
        mem_.computeChecksum(tid, 2 * r.len);  // old + new bytes
        if (!csummed.insert(r.csumVaddr).second)
            continue;
        // Functional value: exact CRC of the current object bytes.
        Addr base = r.objBase != 0 ? r.objBase : r.vaddr;
        std::size_t len = r.objBase != 0 ? r.objLen : r.len;
        buf.resize(len);
        mem_.peek(base, buf.data(), len);
        std::uint64_t csum = kObjectCsumTag | crc32c(buf.data(), len);
        mem_.write64(tid, r.csumVaddr, csum);
        extra_lines.insert(lineBase(r.csumVaddr));
    }
    std::vector<Addr> lines = dirtyLines(dirty, false);
    for (Addr line : lines)
        extra_lines.erase(line);
    for (Addr line : lines)
        recomputeParityLine(tid, line);
    // The checksum-slot lines were deduplicated through a hash set;
    // recompute them in address order, not in the set's
    // implementation-defined iteration order (tvarak-lint R10).
    std::vector<Addr> extra(extra_lines.begin(), extra_lines.end());
    std::sort(extra.begin(), extra.end());
    for (Addr line : extra)
        recomputeParityLine(tid, line);
}

void
TxBPageCsums::onCommit(int tid, const std::vector<DirtyRange> &dirty)
{
    // Page-granular checksums: re-read each dirty page in full,
    // including the transaction runtime's metadata writes — that
    // coverage is exactly why even read-only Redis transactions cost
    // TxB-Page-Csums a whole-page re-read (paper Section IV-B).
    // Insert-guard only (never iterated, so hash order is immaterial
    // — and tvarak-lint R10 tracks container names file-wide, so the
    // name must not collide with the iterated vector above).
    std::unordered_set<Addr> seenPages;
    std::uint8_t page_buf[kPageBytes];
    for (const DirtyRange &r : dirty) {
        for (Addr p = pageBase(r.vaddr); p < r.vaddr + r.len;
             p += kPageBytes) {
            if (!seenPages.insert(p).second)
                continue;
            mem_.read(tid, p, page_buf, kPageBytes);
            mem_.computeChecksum(tid, kPageBytes);
            std::uint64_t csum = pageChecksum(page_buf);
            Addr paddr;
            bool is_nvm;
            panic_if(!mem_.translate(p, paddr, is_nvm) || !is_nvm,
                     "page checksum on a non-NVM address");
            mem_.write64(
                tid,
                nvmDirectVaddr(
                    mem_.layout().pageCsumAddr(paddr - kNvmPhysBase)),
                csum);
        }
    }
    for (Addr line : dirtyLines(dirty, false))
        recomputeParityLine(tid, line);
}

}  // namespace tvarak
