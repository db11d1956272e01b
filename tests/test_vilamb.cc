/**
 * @file
 * Vilamb (asynchronous redundancy) tests: epoch batching, the window
 * of vulnerability and its closure, and the configurable-overhead
 * trade-off of Table I.
 */

#include <gtest/gtest.h>

#include <memory>

#include "apps/trees/pmem_map.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/vilamb.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

struct VilambRig {
    MemorySystem mem;
    DaxFs fs;
    VilambAsyncCsums scheme;
    PmemPool pool;

    explicit VilambRig(std::size_t epoch)
        : mem(test::smallConfig(), designOf(DesignKind::TxBPageCsums)),
          fs(mem),
          scheme(mem, epoch),
          pool(mem, fs, "p", 2ull << 20, &scheme, 1)
    {}
};

TEST(Vilamb, BatchesEveryEpoch)
{
    VilambRig rig(4);
    Addr obj = rig.pool.alloc(0, 64);
    std::uint64_t v = 0;
    for (int i = 0; i < 3; i++) {
        rig.pool.txBegin(0);
        v = static_cast<std::uint64_t>(i);
        rig.pool.txWrite(0, obj, &v, 8);
        rig.pool.txCommit(0);
    }
    EXPECT_GT(rig.scheme.pendingPages(), 0u)
        << "mid-epoch: redundancy work deferred";
    // Within one more epoch's worth of commits the batch must fire
    // (allocation-path coverage calls also advance the epoch counter).
    bool drained = false;
    for (int i = 0; i < 4 && !drained; i++) {
        rig.pool.txBegin(0);
        rig.pool.txWrite(0, obj, &v, 8);
        rig.pool.txCommit(0);
        drained = rig.scheme.pendingPages() == 0;
    }
    EXPECT_TRUE(drained) << "epoch must close within epochCommits";
}

TEST(Vilamb, WindowOfVulnerabilityAndClosure)
{
    VilambRig rig(1000);  // long epoch: everything deferred
    Addr obj = rig.pool.alloc(0, 64);
    rig.pool.txBegin(0);
    std::uint64_t v = 42;
    rig.pool.txWrite(0, obj, &v, 8);
    rig.pool.txCommit(0);

    // Mid-epoch: page checksums are stale — the window the paper's
    // Table I calls reduced coverage.
    rig.mem.flushAll();
    EXPECT_GT(rig.fs.scrub(false), 0u)
        << "data changed but its redundancy has not caught up";

    // The daemon catches up: coverage is whole again.
    rig.scheme.drain(0);
    rig.mem.flushAll();
    EXPECT_EQ(rig.fs.scrub(false), 0u);
    EXPECT_EQ(rig.fs.verifyParity(), 0u);
}

TEST(Vilamb, LongerEpochsCostLess)
{
    auto run = [](std::size_t epoch) {
        VilambRig rig(epoch);
        auto map = makeMap(MapKind::CTree, rig.mem, rig.pool, 64);
        rig.mem.stats().reset();
        std::uint8_t value[64] = {};
        for (std::uint64_t k = 0; k < 400; k++)
            map->insert(0, k * 977, value);
        rig.scheme.drain(0);
        return rig.mem.stats().maxThreadCycles();
    };
    Cycles epoch1 = run(1);
    Cycles epoch16 = run(16);
    Cycles epoch64 = run(64);
    EXPECT_LT(epoch16, epoch1);
    EXPECT_LT(epoch64, epoch16);
}

/*
 * The stale-redundancy window against an actual firmware bug: a lost
 * write landing inside the epoch is INVISIBLE to a scrub, because the
 * stale checksums still describe exactly the stale media the bug left
 * behind. Only after the epoch's drain brings the redundancy up to
 * date does the scrub catch — and repair — the corruption. This pins
 * the detection-latency trade-off the paper's Table I attributes to
 * Vilamb: coverage is epoch-delayed, not just cheaper.
 */
TEST(Vilamb, LostWriteInsideEpochIsMissedUntilDrain)
{
    VilambRig rig(1000);  // long epoch: nothing drains on its own
    Addr obj = rig.pool.alloc(0, 64);
    std::uint64_t v1 = 0x1111;
    rig.pool.txBegin(0);
    rig.pool.txWrite(0, obj, &v1, 8);
    rig.pool.txCommit(0);
    rig.scheme.drain(0);
    rig.mem.flushAll();
    ASSERT_EQ(rig.fs.scrub(false), 0u) << "clean baseline";

    // Locate the object's line and page.
    Addr pa;
    bool is_nvm;
    ASSERT_TRUE(rig.mem.translate(obj, pa, is_nvm) && is_nvm);
    Addr g = lineBase(pa - kNvmPhysBase);
    auto &nvm = rig.mem.nvmArray();
    int fd = rig.fs.open("p");
    ASSERT_GE(fd, 0);
    std::size_t objPage = rig.fs.filePages(fd);
    for (std::size_t p = 0; p < rig.fs.filePages(fd); p++)
        if (rig.fs.filePage(fd, p) == pageBase(g))
            objPage = p;
    ASSERT_LT(objPage, rig.fs.filePages(fd));

    // Lose the writeback of the object's line mid-epoch.
    nvm.dimm(nvm.dimmOf(g)).injectLostWrite(nvm.mediaAddrOf(g));
    std::uint64_t v2 = 0x2222;
    rig.pool.txBegin(0);
    rig.pool.txWrite(0, obj, &v2, 8);
    rig.pool.txCommit(0);
    rig.mem.flushAll();

    // The window: the object page's media holds v1, the acknowledged
    // value is v2 — and a scrub of that page sees nothing, because its
    // checksums are equally stale. The corruption is silently missed.
    // (The commit's log-page writebacks landed, so only those pages —
    // data newer than redundancy — are flagged, as the plain
    // window-of-vulnerability test already pins.)
    EXPECT_EQ(rig.fs.scrubPage(fd, objPage, false), 0u)
        << "stale redundancy cannot convict stale data";

    // Epoch closes: redundancy catches up with the acknowledged
    // state, and the same page scrub now convicts the lost write...
    rig.scheme.drain(0);
    rig.mem.flushAll();
    EXPECT_GT(rig.fs.scrubPage(fd, objPage, false), 0u);

    // ...and repairs it from the (now up-to-date) parity.
    rig.fs.scrub(true);
    rig.mem.dropCaches();
    std::uint64_t got = 0;
    rig.mem.read(0, obj, &got, sizeof(got));
    EXPECT_EQ(got, v2);
    EXPECT_EQ(rig.fs.scrub(false), 0u);
    EXPECT_EQ(rig.fs.verifyParity(), 0u);
}

TEST(Vilamb, DedupesRepeatedPageDirtying)
{
    VilambRig rig(64);
    Addr obj = rig.pool.alloc(0, 64);
    std::uint64_t v = 0;
    for (int i = 0; i < 32; i++) {
        rig.pool.txBegin(0);
        v = static_cast<std::uint64_t>(i);
        rig.pool.txWrite(0, obj, &v, 8);
        rig.pool.txCommit(0);
    }
    // 32 commits hit the same handful of pages (object, lane, log).
    EXPECT_LE(rig.scheme.pendingPages(), 12u);
}

}  // namespace
}  // namespace tvarak
