#include "layout/layout.hh"

#include "sim/log.hh"

namespace tvarak {

Layout::Layout(std::size_t totalBytes, std::size_t dimms,
               std::size_t parityCount)
    : dimms_(dimms), parityCount_(parityCount)
{
    panic_if(dimms < 2, "striped parity needs >= 2 DIMMs");
    panic_if(parityCount < 1 || parityCount >= dimms,
             "parity count %zu out of range for %zu DIMMs",
             parityCount, dimms);
    panic_if(totalBytes % kPageBytes != 0, "capacity not page aligned");
    std::size_t total_pages = totalBytes / kPageBytes;

    // Metadata sizing: 8 B page checksum + 512 B of DAX-CL-checksums
    // per data page. Solve conservatively, then round the data region
    // start up to a stripe (row) boundary so rows align with DIMMs.
    std::size_t meta_bytes_per_data_page =
        kChecksumBytes + kLinesPerPage * kChecksumBytes;
    std::size_t meta_pages =
        (total_pages * meta_bytes_per_data_page + kPageBytes - 1) /
        kPageBytes;
    // Split: page checksums first, then DAX-CL region.
    std::size_t page_csum_pages =
        (total_pages * kChecksumBytes + kPageBytes - 1) / kPageBytes;
    meta_pages = ((meta_pages + dimms_ - 1) / dimms_) * dimms_;
    panic_if(meta_pages >= total_pages, "NVM too small for metadata");

    daxClBase_ = static_cast<Addr>(page_csum_pages) * kPageBytes;
    dataBase_ = static_cast<Addr>(meta_pages) * kPageBytes;
    dataPages_ = total_pages - meta_pages;
    // Trim trailing partial stripe.
    stripes_ = dataPages_ / dimms_;
    dataPages_ = stripes_ * dimms_;
    end_ = dataBase_ + static_cast<Addr>(dataPages_) * kPageBytes;
}

bool
Layout::memberIsParity(std::size_t s, std::size_t m,
                       std::size_t &role) const
{
    // Parity roles occupy k consecutive slots descending from the
    // RAID-5 rotation point; invert parityMember() directly.
    std::size_t base = dimms_ - 1 - (s % dimms_);
    std::size_t r = (base + dimms_ - m) % dimms_;
    if (r < parityCount_) {
        role = r;
        return true;
    }
    return false;
}

std::size_t
Layout::stripeOf(Addr a) const
{
    panic_if(!isDataAddr(a), "stripeOf on non-data address");
    return static_cast<std::size_t>((a - dataBase_) / kPageBytes) / dimms_;
}

bool
Layout::isParityPage(Addr a) const
{
    std::size_t s = stripeOf(a);
    std::size_t member =
        static_cast<std::size_t>((a - dataBase_) / kPageBytes) % dimms_;
    std::size_t role;
    return memberIsParity(s, member, role);
}

Addr
Layout::parityPageOf(Addr a, std::size_t role) const
{
    panic_if(role >= parityCount_, "parity role %zu out of range", role);
    std::size_t s = stripeOf(a);
    return dataBase_ +
        static_cast<Addr>(s * dimms_ + parityMember(s, role)) *
        kPageBytes;
}

Addr
Layout::parityLineOf(Addr a, std::size_t role) const
{
    return parityPageOf(a, role) + lineInPage(a) * kLineBytes;
}

std::size_t
Layout::parityRoleOf(Addr a) const
{
    std::size_t s = stripeOf(a);
    std::size_t member =
        static_cast<std::size_t>((a - dataBase_) / kPageBytes) % dimms_;
    std::size_t role;
    panic_if(!memberIsParity(s, member, role),
             "parityRoleOf on a data page");
    return role;
}

void
Layout::stripeDataPages(Addr a, std::vector<Addr> &out) const
{
    out.clear();
    std::size_t s = stripeOf(a);
    for (std::size_t m = 0; m < dimms_; m++) {
        std::size_t role;
        if (memberIsParity(s, m, role))
            continue;
        out.push_back(dataBase_ +
                      static_cast<Addr>(s * dimms_ + m) * kPageBytes);
    }
}

std::size_t
Layout::dataMemberIndexOf(Addr a) const
{
    std::size_t s = stripeOf(a);
    std::size_t member =
        static_cast<std::size_t>((a - dataBase_) / kPageBytes) -
        s * dimms_;
    // The k parity slots are the cyclic run ending at slot `base`
    // (parityMember); the coding index skips those below the member.
    // Closed form: this runs on every TVARAK writeback.
    std::size_t base = dimms_ - 1 - (s % dimms_);
    if (base + 1 < parityCount_) {
        // The run wraps: [0, base] and [wrap, dimms).
        std::size_t wrap = dimms_ + base + 1 - parityCount_;
        panic_if(member <= base || member >= wrap,
                 "dataMemberIndexOf on a parity page");
        return member - (base + 1);
    }
    panic_if(member + parityCount_ > base && member <= base,
             "dataMemberIndexOf on a parity page");
    return member > base ? member - parityCount_ : member;
}

Addr
Layout::pageCsumAddr(Addr a) const
{
    panic_if(!isDataAddr(a), "pageCsumAddr on non-data address");
    std::uint64_t idx = pageNumber(a - dataBase_);
    Addr addr = pageCsumBase() + idx * kChecksumBytes;
    panic_if(addr >= daxClBase_, "page checksum region overflow");
    return addr;
}

Addr
Layout::daxClCsumAddr(Addr a) const
{
    panic_if(!isDataAddr(a), "daxClCsumAddr on non-data address");
    std::uint64_t idx = lineNumber(a - dataBase_);
    Addr addr = daxClBase_ + idx * kChecksumBytes;
    panic_if(addr >= dataBase_, "DAX-CL checksum region overflow");
    return addr;
}

Addr
Layout::nthDataPage(std::size_t index) const
{
    // Each stripe contributes dimms_ - parityCount_ data pages.
    std::size_t per_stripe = dataCount();
    std::size_t s = index / per_stripe;
    std::size_t k = index % per_stripe;
    panic_if(s >= stripes_, "data page index %zu out of range", index);
    // k-th member skipping the parity slots.
    std::size_t member = 0;
    for (std::size_t m = 0; m < dimms_; m++) {
        std::size_t role;
        if (memberIsParity(s, m, role))
            continue;
        if (k == 0) {
            member = m;
            break;
        }
        k--;
    }
    return dataBase_ +
        static_cast<Addr>(s * dimms_ + member) * kPageBytes;
}

std::size_t
Layout::dataPageIndexOf(Addr a) const
{
    panic_if(isParityPage(a), "dataPageIndexOf on a parity page");
    std::size_t s = stripeOf(a);
    return s * dataCount() + dataMemberIndexOf(a);
}

std::size_t
Layout::allocatableDataPages() const
{
    return stripes_ * dataCount();
}

}  // namespace tvarak
