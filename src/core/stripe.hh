/**
 * @file
 * The stripe view: the machine's one reconstruction path. TVARAK's
 * recovery, degraded fills and the rebuild sweep all gather a line's
 * surviving stripe members (n data + k parity, same in-page offset)
 * and decode with the machine's single RsCode. Only where a member's
 * bytes come from differs — the caller's Source policy: at rest (the
 * TVARAK engine: data from media, parity through its coherent
 * redundancy caches) or current value (software schemes). Gather
 * scratch is fixed, so reconstructing a line allocates nothing.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "checksum/gf256.hh"
#include "layout/layout.hh"
#include "nvm/nvm.hh"
#include "sim/types.hh"

namespace tvarak {

class StripeView
{
  public:
    /** Where a surviving stripe member's bytes come from. */
    class Source
    {
      public:
        /** Read the 64 B of member line @p nvmAddr (a parity member
         *  iff @p parity). Untimed. */
        virtual void memberLine(Addr nvmAddr, bool parity,
                                std::uint8_t *out) = 0;

      protected:
        ~Source() = default;  // never owned through this interface
    };

    StripeView(const Layout &layout, NvmArray &nvm);
    StripeView(const StripeView &) = delete;  // ptrs_ point into bufs_
    StripeView &operator=(const StripeView &) = delete;

    /** The machine's codec for this layout's n+k geometry. */
    const RsCode &codec() const { return rs_; }

    /**
     * Rebuild the data or parity line holding @p nvmAddr from its
     * stripe survivors. The target is always treated as erased, even
     * when its media is readable: recovery rebuilds lines whose
     * *content* is corrupt, and a rebuilding DIMM's bytes above its
     * watermark are garbage. Every other member not on a degraded
     * line is read through @p src.
     *
     * @param charge  bill one NVM read per member actually read.
     * @return false iff more members are erased than the code
     *         tolerates; @p out is then poison (a detectable loss).
     */
    bool reconstruct(Addr nvmAddr, std::uint8_t *out, Source &src,
                     bool charge);

    /**
     * Encode the parity of @p page's stripe from its data pages'
     * media bytes. @p stripe receives the n+k member pages in coding
     * order (data pages, then parity roles 0..k-1), every in-page
     * line encoded with the machine's codec. Untimed.
     */
    void encodeFromMedia(Addr page, std::vector<std::uint8_t> &stripe);

  private:
    const Layout &layout_;
    NvmArray &nvm_;
    RsCode rs_;

    /** Gather scratch, sized n+k once. */
    std::vector<Addr> pages_;
    std::vector<std::array<std::uint8_t, kLineBytes>> bufs_;
    std::vector<std::uint8_t *> ptrs_;
    /** encodeFromMedia's per-line member pointers, sized n+k once. */
    std::vector<std::uint8_t *> encodePtrs_;
};

}  // namespace tvarak
