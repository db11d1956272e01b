/**
 * @file
 * The stripe view under every registered design that survives a DIMM
 * loss. After a short workload and a flush, reconstructing any member
 * of a sampled stripe — each data member and each parity role — must
 * yield that member's authoritative value: its media content where
 * the TVARAK engine keeps the stripe at rest, its current value where
 * software maintains the parity. With k+1 of the array's DIMMs
 * failed, every member is beyond the code's budget: reconstruction
 * must report the loss and poison.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/trees/pmem_map.hh"
#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/registry.hh"
#include "redundancy/scheme.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

constexpr std::size_t kValueBytes = 48;
constexpr std::uint64_t kKeys = 200;
/** With the superblock, the unmapped file fills data pages 0..11, so
 *  it ends on a stripe boundary for every registered geometry (n = 3,
 *  4, 6) and no stripe mixes its pages with the mapped pool's. */
constexpr std::size_t kFilePages = 11;
constexpr std::size_t kPageStride = 3;  //!< sample every 3rd page
const std::size_t kLineSamples[] = {0, 21, kLinesPerPage - 1};

std::vector<const Design *>
survivableDesigns()
{
    std::vector<const Design *> out;
    for (const Design *d : allRegisteredDesigns()) {
        if (d->survivableFailures() >= 1)
            out.push_back(d);
    }
    return out;
}

/** Every member line of @p line's stripe: data members in coding
 *  order, then the parity roles. */
std::vector<Addr>
stripeMembers(const Layout &layout, Addr line)
{
    std::vector<Addr> pages;
    layout.stripeDataPages(line, pages);
    std::vector<Addr> members;
    for (Addr p : pages)
        members.push_back(p + pageOffset(line));
    for (std::size_t j = 0; j < layout.parityCount(); j++)
        members.push_back(layout.parityLineOf(line, j));
    return members;
}

class StripeProperty : public ::testing::TestWithParam<const Design *>
{};

TEST_P(StripeProperty, ReconstructionMatchesAuthoritativeMembers)
{
    const Design &design = *GetParam();
    MemorySystem mem(test::smallConfig(), design);
    DaxFs fs(mem);
    std::unique_ptr<RedundancyScheme> scheme = design.makeScheme(mem);

    // An unmapped file (DaxFs's software parity, current values) and
    // a mapped pool (the engine's at-rest world under TVARAK designs,
    // the software scheme's current-value world otherwise). Both are
    // created before any data is written, and they share no stripe:
    // DaxFs::create recomputes the superblock stripe's parity from
    // media while members may be dirty in the caches, and a stripe
    // mixing unmapped and engine-mapped pages has two parity writers.
    // Both are known gaps (ROADMAP), not properties of the view.
    int fd = fs.create("f", kFilePages * kPageBytes);
    PmemPool pool(mem, fs, "p", 1ull << 20, scheme.get(), 1);
    auto map = makeMap(MapKind::CTree, mem, pool, kValueBytes);
    std::uint8_t value[kValueBytes];
    for (std::uint64_t key = 0; key < kKeys; key++) {
        for (std::size_t i = 0; i < kValueBytes; i++)
            value[i] = static_cast<std::uint8_t>(key * 29 + i);
        map->insert(0, key, value);
    }
    std::vector<std::uint8_t> page(kPageBytes);
    for (std::size_t p = 0; p < kFilePages; p++) {
        for (std::size_t i = 0; i < kPageBytes; i++)
            page[i] = static_cast<std::uint8_t>(p * 53 + i * 7);
        fs.pwrite(0, fd, p * kPageBytes, page.data(), kPageBytes);
    }
    if (scheme)
        scheme->drain(0);
    mem.flushAll();
    ASSERT_EQ(fs.verifyParity(), 0u);

    const Layout &layout = mem.layout();
    std::vector<Addr> lines;
    for (int f : {pool.fd(), fd}) {
        for (std::size_t p = 0; p < fs.filePages(f); p += kPageStride) {
            for (std::size_t l : kLineSamples)
                lines.push_back(fs.filePage(f, p) + l * kLineBytes);
        }
    }

    std::size_t checked[2] = {};  // [current, at rest]
    for (Addr line : lines) {
        std::vector<Addr> members = stripeMembers(layout, line);
        bool at_rest = false;
        for (std::size_t i = 0; i < layout.dataCount(); i++) {
            at_rest = at_rest || (design.engineCoversDaxData() &&
                                  mem.tvarak().isDaxData(members[i]));
        }
        for (Addr m : members) {
            std::uint8_t expect[kLineBytes];
            if (at_rest)
                mem.nvmArray().rawRead(m, expect, kLineBytes);
            else
                mem.peek(nvmDirectVaddr(m), expect, kLineBytes);
            std::uint8_t got[kLineBytes];
            ASSERT_TRUE(mem.reconstructLine(m, got, false))
                << design.cliName() << " member 0x" << std::hex << m;
            ASSERT_EQ(std::memcmp(expect, got, kLineBytes), 0)
                << design.cliName() << " member 0x" << std::hex << m
                << (at_rest ? " (at rest)" : " (current)");
            checked[at_rest]++;
        }
    }
    EXPECT_GT(checked[0], 0u);
    if (design.engineCoversDaxData()) {
        EXPECT_GT(checked[1], 0u);
    }

    // k+1 dead DIMMs: every stripe has more erasures than parity.
    for (std::size_t d = 0; d <= layout.parityCount(); d++)
        mem.failDimm(d);
    for (Addr line : lines) {
        for (Addr m : stripeMembers(layout, line)) {
            std::uint8_t got[kLineBytes] = {};
            ASSERT_FALSE(mem.reconstructLine(m, got, false))
                << design.cliName() << " member 0x" << std::hex << m;
            for (std::uint8_t byte : got)
                ASSERT_EQ(byte, NvmDimm::kPoisonByte);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, StripeProperty, ::testing::ValuesIn(survivableDesigns()),
    [](const ::testing::TestParamInfo<const Design *> &info) {
        std::string name;
        for (char c : info.param->cliName())
            name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
        return name;
    });

}  // namespace
}  // namespace tvarak
