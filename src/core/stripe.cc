#include "core/stripe.hh"

#include <cstring>

#include "sim/log.hh"

namespace tvarak {

StripeView::StripeView(const Layout &layout, NvmArray &nvm)
    : layout_(layout),
      nvm_(nvm),
      rs_(layout.dataCount(), layout.parityCount()),
      bufs_(layout.dimms()),
      ptrs_(layout.dimms()),
      encodePtrs_(layout.dimms())
{
    for (std::size_t m = 0; m < bufs_.size(); m++)
        ptrs_[m] = bufs_[m].data();
}

bool
StripeView::reconstruct(Addr nvmAddr, std::uint8_t *out, Source &src,
                        bool charge)
{
    Addr line = lineBase(nvmAddr);
    const std::size_t n = rs_.n();
    const std::size_t k = rs_.k();
    Addr off = pageOffset(line);
    layout_.stripeDataPages(line, pages_);  // coding-index order
    std::size_t target = n + k;
    bool present[255] = {};
    for (std::size_t m = 0; m < n + k; m++) {
        bool parity = m >= n;
        Addr member = parity ? layout_.parityLineOf(line, m - n)
                             : pages_[m] + off;
        if (member == line)
            target = m;
        present[m] = member != line && !nvm_.lineDegraded(member);
        if (!present[m])
            continue;
        src.memberLine(member, parity, ptrs_[m]);
        if (charge)
            nvm_.charge(member, false, parity);
    }
    panic_if(target == n + k, "stripe view: %llx not in its stripe",
             static_cast<unsigned long long>(line));
    if (!rs_.decode(ptrs_.data(), present)) {
        // More members lost than parity can absorb: loud poison, so
        // every downstream checksum consumer sees a *detected* loss.
        std::memset(out, NvmDimm::kPoisonByte, kLineBytes);
        return false;
    }
    std::memcpy(out, ptrs_[target], kLineBytes);
    return true;
}

void
StripeView::encodeFromMedia(Addr page, std::vector<std::uint8_t> &stripe)
{
    const std::size_t members = rs_.n() + rs_.k();
    layout_.stripeDataPages(page, pages_);
    stripe.resize(members * kPageBytes);
    for (std::size_t i = 0; i < pages_.size(); i++)
        nvm_.rawRead(pages_[i], stripe.data() + i * kPageBytes, kPageBytes);
    for (std::size_t l = 0; l < kLinesPerPage; l++) {
        for (std::size_t m = 0; m < members; m++) {
            encodePtrs_[m] =
                stripe.data() + m * kPageBytes + l * kLineBytes;
        }
        rs_.encode(encodePtrs_.data());
    }
}

}  // namespace tvarak
