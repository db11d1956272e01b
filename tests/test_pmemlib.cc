/**
 * @file
 * PmemPool tests: allocator, undo-log transactions, and the TxB
 * software redundancy schemes hooked at commit.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "pmemlib/pmem_pool.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

class PoolTest : public ::testing::TestWithParam<DesignKind>
{
  protected:
    void SetUp() override
    {
        mem = std::make_unique<MemorySystem>(test::smallConfig(),
                                             designOf(GetParam()));
        fs = std::make_unique<DaxFs>(*mem);
        scheme = mem->designObj().makeScheme(*mem);
        pool = std::make_unique<PmemPool>(*mem, *fs, "pool",
                                          2ull << 20, scheme.get(), 2);
    }

    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<DaxFs> fs;
    std::unique_ptr<RedundancyScheme> scheme;
    std::unique_ptr<PmemPool> pool;
};

TEST_P(PoolTest, AllocWriteReadBack)
{
    Addr obj = pool->alloc(0, 100);
    std::uint8_t w[100];
    for (std::size_t i = 0; i < sizeof(w); i++)
        w[i] = static_cast<std::uint8_t>(i);
    pool->txBegin(0);
    pool->txWrite(0, obj, w, sizeof(w));
    pool->txCommit(0);
    std::uint8_t r[100];
    mem->read(0, obj, r, sizeof(r));
    EXPECT_EQ(std::memcmp(w, r, sizeof(w)), 0);
    EXPECT_EQ(pool->objectSize(obj), 100u);
}

TEST_P(PoolTest, FreeReusesMemory)
{
    Addr a = pool->alloc(0, 64);
    pool->free(0, a);
    Addr b = pool->alloc(0, 64);
    EXPECT_EQ(a, b) << "same size class must recycle the slot";
    EXPECT_EQ(pool->liveObjects(), 1u);
}

TEST_P(PoolTest, DistinctLanesDistinctArenas)
{
    Addr a = pool->alloc(0, 64);  // lane 0
    Addr b = pool->alloc(1, 64);  // lane 1
    EXPECT_NE(pageBase(a), pageBase(b));
}

TEST_P(PoolTest, AbortRollsBack)
{
    Addr obj = pool->alloc(0, 64);
    std::uint64_t v1 = 111, v2 = 222;
    pool->txBegin(0);
    pool->txWrite(0, obj, &v1, 8);
    pool->txCommit(0);

    pool->txBegin(0);
    pool->txWrite(0, obj, &v2, 8);
    EXPECT_EQ(mem->read64(0, obj), 222u);
    pool->txAbort(0);
    EXPECT_EQ(mem->read64(0, obj), 111u)
        << "undo log must restore the old value";
}

TEST_P(PoolTest, RootPersists)
{
    Addr obj = pool->alloc(0, 64);
    pool->setRoot(0, obj);
    EXPECT_EQ(pool->getRoot(0), obj);
}

TEST_P(PoolTest, SetRootInsideTxIsLogged)
{
    Addr obj = pool->alloc(0, 64);
    pool->txBegin(0);
    pool->setRoot(0, obj);
    pool->txAbort(0);
    EXPECT_EQ(pool->getRoot(0), 0u);
}

TEST_P(PoolTest, ReattachFindsExistingPool)
{
    Addr obj = pool->alloc(0, 64);
    pool->setRoot(0, obj);
    PmemPool again(*mem, *fs, "pool", 2ull << 20, scheme.get(), 2);
    EXPECT_EQ(again.getRoot(0), obj);
    EXPECT_EQ(again.base(), pool->base());
}

TEST_P(PoolTest, CommitCountsTracked)
{
    mem->stats().reset();
    Addr obj = pool->alloc(0, 64);
    for (int i = 0; i < 5; i++) {
        pool->txBegin(0);
        std::uint64_t v = static_cast<std::uint64_t>(i);
        pool->txWrite(0, obj, &v, 8);
        pool->txCommit(0);
    }
    EXPECT_EQ(mem->stats().txCommits, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, PoolTest,
    ::testing::Values(DesignKind::Baseline, DesignKind::Tvarak,
                      DesignKind::TxBObjectCsums,
                      DesignKind::TxBPageCsums),
    [](const auto &info) {
        std::string n = designOf(info.param).displayName();
        std::erase(n, '-');
        return n;
    });

//
// Scheme-specific behaviour.
//

TEST(TxBObject, ObjectChecksumsVerifyAfterCommits)
{
    MemorySystem mem(test::smallConfig(),
                     designOf(DesignKind::TxBObjectCsums));
    DaxFs fs(mem);
    auto scheme = mem.designObj().makeScheme(mem);
    PmemPool pool(mem, fs, "p", 2ull << 20, scheme.get(), 2);

    constexpr std::size_t kObjSizeStep = 8;
    std::vector<Addr> objs;
    for (int i = 0; i < 16; i++) {
        Addr o = pool.alloc(0, 48 + i * kObjSizeStep);
        pool.txBegin(0);
        std::uint64_t v = static_cast<std::uint64_t>(i) * 0x1111;
        pool.txWrite(0, o, &v, 8);
        pool.txCommit(0);
        objs.push_back(o);
    }
    EXPECT_EQ(pool.verifyObjects(), 0u)
        << "every committed object must carry a valid checksum";

    // A silent in-place corruption is caught by object verification.
    Addr paddr;
    bool is_nvm;
    ASSERT_TRUE(mem.translate(objs[3], paddr, is_nvm));
    mem.flushAll();
    std::uint8_t junk = 0x66;
    mem.nvmArray().rawWrite(paddr - kNvmPhysBase, &junk, 1);
    mem.dropCaches();
    EXPECT_EQ(pool.verifyObjects(), 1u);
}

TEST(TxBPage, PageChecksumsVerifyAfterCommits)
{
    MemorySystem mem(test::smallConfig(), designOf(DesignKind::TxBPageCsums));
    DaxFs fs(mem);
    auto scheme = mem.designObj().makeScheme(mem);
    PmemPool pool(mem, fs, "p", 2ull << 20, scheme.get(), 2);

    for (int i = 0; i < 32; i++) {
        Addr o = pool.alloc(0, 200);
        pool.txBegin(0);
        std::uint64_t v = static_cast<std::uint64_t>(i);
        pool.txWrite(0, o, &v, 8);
        pool.txCommit(0);
    }
    mem.flushAll();
    // The FS scrub checks page checksums for mapped files under the
    // TxB-Page design; everything the scheme touched must verify.
    EXPECT_EQ(fs.scrub(false), 0u);
}

TEST(TxBSchemes, ParityMaintainedByRecomputation)
{
    for (DesignKind d :
         {DesignKind::TxBObjectCsums, DesignKind::TxBPageCsums}) {
        MemorySystem mem(test::smallConfig(), designOf(d));
        DaxFs fs(mem);
        auto scheme = mem.designObj().makeScheme(mem);
        PmemPool pool(mem, fs, "p", 2ull << 20, scheme.get(), 2);
        for (int i = 0; i < 64; i++) {
            Addr o = pool.alloc(i % 2, 64);
            pool.txBegin(i % 2);
            std::uint64_t v = static_cast<std::uint64_t>(i) * 7;
            pool.txWrite(i % 2, o, &v, 8);
            pool.txCommit(i % 2);
        }
        mem.flushAll();
        EXPECT_EQ(fs.verifyParity(), 0u) << designOf(d).displayName();
    }
}

TEST(TxBSchemes, CommitCostOrdering)
{
    // The defining cost relationship (paper Fig 8): page-granular
    // checksums force whole-page reads at commit, so TxB-Page must
    // issue more cache accesses than TxB-Object for small writes.
    auto commits = [](DesignKind d) {
        MemorySystem mem(test::smallConfig(), designOf(d));
        DaxFs fs(mem);
        auto scheme = mem.designObj().makeScheme(mem);
        PmemPool pool(mem, fs, "p", 2ull << 20, scheme.get(), 2);
        Addr o = pool.alloc(0, 64);
        mem.stats().reset();
        for (int i = 0; i < 100; i++) {
            pool.txBegin(0);
            std::uint64_t v = static_cast<std::uint64_t>(i);
            pool.txWrite(0, o, &v, 8);
            pool.txCommit(0);
        }
        return mem.stats().cacheAccesses();
    };
    std::uint64_t baseline = commits(DesignKind::Baseline);
    std::uint64_t object = commits(DesignKind::TxBObjectCsums);
    std::uint64_t page = commits(DesignKind::TxBPageCsums);
    EXPECT_LT(baseline, object);
    EXPECT_LT(object, page);
}

}  // namespace
}  // namespace tvarak
