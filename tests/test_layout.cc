/**
 * @file
 * Layout tests: RAID-5 geometry, metadata regions, address maths.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "layout/layout.hh"

namespace tvarak {
namespace {

TEST(Layout, RegionsAreOrderedAndDisjoint)
{
    Layout layout(64ull << 20, 4);
    EXPECT_EQ(layout.pageCsumBase(), 0u);
    EXPECT_LT(layout.pageCsumBase(), layout.daxClBase());
    EXPECT_LT(layout.daxClBase(), layout.dataBase());
    EXPECT_LT(layout.dataBase(), layout.end());
    EXPECT_EQ(layout.dataBase() % (4 * kPageBytes), 0u)
        << "data region must start on a stripe row";
}

TEST(Layout, MetadataSizedForAllDataPages)
{
    Layout layout(64ull << 20, 4);
    // The page checksum of the *last* data page must fit below the
    // DAX-CL region, and its last line checksum below the data base.
    Addr last_page = layout.end() - kPageBytes;
    EXPECT_LT(layout.pageCsumAddr(last_page), layout.daxClBase());
    EXPECT_LT(layout.daxClCsumAddr(layout.end() - kLineBytes),
              layout.dataBase());
}

class LayoutGeometry : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LayoutGeometry, ParityRotatesAcrossAllMembers)
{
    std::size_t dimms = GetParam();
    Layout layout(32ull << 20, dimms);
    // Over `dimms` consecutive stripes, every member index must serve
    // as parity exactly once (RAID-5 rotation).
    std::set<std::size_t> members;
    for (std::size_t s = 0; s < dimms; s++) {
        Addr in_stripe = layout.dataBase() +
            static_cast<Addr>(s) * dimms * kPageBytes;
        Addr parity = layout.parityPageOf(in_stripe);
        members.insert(static_cast<std::size_t>(
            (parity - layout.dataBase()) / kPageBytes) % dimms);
    }
    EXPECT_EQ(members.size(), dimms);
}

TEST_P(LayoutGeometry, EveryPageIsDataXorParity)
{
    std::size_t dimms = GetParam();
    Layout layout(16ull << 20, dimms);
    std::size_t data_count = 0;
    std::size_t check = std::min<std::size_t>(layout.dataPages(), 4096);
    for (std::size_t p = 0; p < check; p++) {
        Addr page = layout.dataBase() + p * kPageBytes;
        if (!layout.isParityPage(page))
            data_count++;
    }
    EXPECT_EQ(data_count, check - check / dimms);
}

TEST_P(LayoutGeometry, NthDataPageSkipsParityAndCoversAll)
{
    std::size_t dimms = GetParam();
    Layout layout(16ull << 20, dimms);
    std::set<Addr> seen;
    std::size_t n = std::min<std::size_t>(
        layout.allocatableDataPages(), 3000);
    for (std::size_t i = 0; i < n; i++) {
        Addr page = layout.nthDataPage(i);
        EXPECT_FALSE(layout.isParityPage(page)) << "i=" << i;
        EXPECT_TRUE(seen.insert(page).second) << "duplicate at " << i;
        if (i > 0) {
            EXPECT_GT(page, layout.nthDataPage(i - 1));
        }
    }
}

TEST_P(LayoutGeometry, StripeDataPagesExcludesParity)
{
    std::size_t dimms = GetParam();
    Layout layout(16ull << 20, dimms);
    std::vector<Addr> pages;
    for (std::size_t s = 0; s < 2 * dimms; s++) {
        Addr in_stripe = layout.dataBase() +
            static_cast<Addr>(s) * dimms * kPageBytes;
        layout.stripeDataPages(in_stripe, pages);
        EXPECT_EQ(pages.size(), dimms - 1);
        Addr parity = layout.parityPageOf(in_stripe);
        for (Addr p : pages) {
            EXPECT_NE(p, parity);
            EXPECT_EQ(layout.stripeOf(p), s);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DimmCounts, LayoutGeometry,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(Layout, DataMemberIndexIsRankInStripeDataPages)
{
    // dataMemberIndexOf's closed form must agree with the position in
    // stripeDataPages (coding order) for every k, including parity
    // runs that wrap past member slot 0.
    std::vector<Addr> pages;
    for (std::size_t dimms = 2; dimms <= 8; dimms++) {
        for (std::size_t k = 1; k < dimms; k++) {
            Layout layout(16ull << 20, dimms, k);
            for (std::size_t s = 0; s < 2 * dimms; s++) {
                Addr in_stripe = layout.dataBase() +
                    static_cast<Addr>(s) * dimms * kPageBytes;
                layout.stripeDataPages(in_stripe, pages);
                ASSERT_EQ(pages.size(), dimms - k);
                for (std::size_t i = 0; i < pages.size(); i++) {
                    ASSERT_EQ(layout.dataMemberIndexOf(pages[i] + 64), i)
                        << dimms << " DIMMs, k=" << k << ", stripe " << s;
                }
            }
        }
    }
}

TEST(Layout, ParityLineSameInPageOffset)
{
    Layout layout(32ull << 20, 4);
    Addr data_page = layout.nthDataPage(17);
    Addr line = data_page + 23 * kLineBytes;
    Addr parity_line = layout.parityLineOf(line);
    EXPECT_EQ(lineInPage(parity_line), 23u);
    EXPECT_EQ(pageBase(parity_line), layout.parityPageOf(line));
}

TEST(Layout, DaxClChecksumPacking)
{
    Layout layout(32ull << 20, 4);
    Addr page = layout.nthDataPage(5);
    // Eight consecutive line checksums share one checksum line.
    Addr first = layout.daxClCsumLine(page);
    for (std::size_t l = 0; l < kChecksumsPerLine; l++) {
        EXPECT_EQ(layout.daxClCsumLine(page + l * kLineBytes), first);
    }
    EXPECT_NE(layout.daxClCsumLine(page + kChecksumsPerLine * kLineBytes),
              first);
    // Entries are 8 bytes apart.
    EXPECT_EQ(layout.daxClCsumAddr(page + kLineBytes) -
                  layout.daxClCsumAddr(page),
              kChecksumBytes);
}

TEST(Layout, PageChecksumEntriesDistinct)
{
    Layout layout(32ull << 20, 4);
    std::set<Addr> entries;
    for (std::size_t i = 0; i < 512; i++)
        entries.insert(layout.pageCsumAddr(layout.nthDataPage(i)));
    EXPECT_EQ(entries.size(), 512u);
}

//
// Boundary geometry: the device edges and region seams where
// off-by-one bugs in the address maths would hide.
//

TEST(LayoutBoundary, LastLineOfStripeKeepsParityGeometry)
{
    Layout layout(32ull << 20, 4);
    std::size_t dimms = layout.dimms();
    // Check the first and the very last stripe of the device: the
    // final line of the stripe's last data page must map to the same
    // in-page offset of that stripe's parity page, inside the device.
    for (std::size_t s : {std::size_t{0}, layout.stripes() - 1}) {
        Addr row = layout.dataBase() +
            static_cast<Addr>(s) * dimms * kPageBytes;
        Addr parity = layout.parityPageOf(row);
        Addr last_page = row + (dimms - 1) * kPageBytes;
        if (last_page == parity)
            last_page -= kPageBytes;
        Addr last_line = last_page + (kLinesPerPage - 1) * kLineBytes;
        EXPECT_EQ(layout.stripeOf(last_line), s);
        Addr parity_line = layout.parityLineOf(last_line);
        EXPECT_EQ(lineInPage(parity_line), kLinesPerPage - 1);
        EXPECT_EQ(pageBase(parity_line), parity);
        EXPECT_LE(parity_line + kLineBytes, layout.end());
    }
}

TEST(LayoutBoundary, ParityRotationMatchesFig3For4And8Dimms)
{
    // Stripe s keeps parity on member N-1 - s % N; growing the array
    // from 4 to 8 DIMMs must preserve exactly this rotation schedule.
    for (std::size_t dimms : {std::size_t{4}, std::size_t{8}}) {
        Layout layout(64ull << 20, dimms);
        for (std::size_t s = 0; s < 3 * dimms; s++) {
            Addr row = layout.dataBase() +
                static_cast<Addr>(s) * dimms * kPageBytes;
            Addr parity = layout.parityPageOf(row);
            std::size_t member =
                static_cast<std::size_t>((parity - row) / kPageBytes);
            EXPECT_EQ(member, dimms - 1 - s % dimms)
                << "dimms=" << dimms << " stripe=" << s;
        }
    }
}

TEST(LayoutBoundary, ChecksumSlotPackingWrapsAtLineBoundary)
{
    Layout layout(32ull << 20, 4);
    // Walking lines across a checksum-line seam must fill slots
    // 0..kChecksumsPerLine-1 and then wrap to slot 0 of the next one.
    Addr page = layout.dataBase();
    for (std::size_t l = 0; l < 2 * kChecksumsPerLine; l++) {
        Addr a = page + l * kLineBytes;
        EXPECT_EQ(lineOffset(layout.daxClCsumAddr(a)),
                  (l % kChecksumsPerLine) * kChecksumBytes)
            << "l=" << l;
    }
    // The very last data line's checksum lands in the final (possibly
    // partially used) checksum line, still below the data region.
    Addr last = layout.end() - kLineBytes;
    EXPECT_GE(layout.daxClCsumLine(last), layout.daxClBase());
    EXPECT_LE(layout.daxClCsumAddr(last) + kChecksumBytes,
              layout.dataBase());
}

}  // namespace
}  // namespace tvarak
