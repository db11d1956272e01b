/**
 * @file
 * N-Store tests: WAL-before-data transactions, chain linkage, the
 * fragmented (random) WAL layout, YCSB driver behaviour, and
 * redundancy invariants under TVARAK.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "apps/nstore/nstore.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

class NStoreTest : public ::testing::Test
{
  protected:
    NStoreTest()
        : mem(test::smallConfig(), designOf(DesignKind::Tvarak)),
          fs(mem),
          store(std::make_shared<NStore>(mem, fs, nullptr, 256, 128, 2))
    {}

    MemorySystem mem;
    DaxFs fs;
    std::shared_ptr<NStore> store;
};

TEST_F(NStoreTest, UpdateThenReadBack)
{
    std::uint8_t w[NStore::kFieldBytes], r[NStore::kFieldBytes];
    std::memset(w, 0x3c, sizeof(w));
    store->updateTx(0, 17, 3, w);
    store->readTx(0, 17, 3, r);
    EXPECT_EQ(std::memcmp(w, r, sizeof(w)), 0);
}

TEST_F(NStoreTest, FieldsAreIndependent)
{
    std::uint8_t a[NStore::kFieldBytes], b[NStore::kFieldBytes];
    std::uint8_t r[NStore::kFieldBytes];
    std::memset(a, 1, sizeof(a));
    std::memset(b, 2, sizeof(b));
    store->updateTx(0, 5, 0, a);
    store->updateTx(0, 5, 9, b);
    store->readTx(0, 5, 0, r);
    EXPECT_EQ(r[0], 1);
    store->readTx(0, 5, 9, r);
    EXPECT_EQ(r[0], 2);
    // The record keeps the tuple id in its header.
    std::uint8_t record[NStore::kTupleBytes];
    store->readRecord(0, 5, record);
    std::uint64_t id;
    std::memcpy(&id, record, 8);
    EXPECT_EQ(id, 5u);
}

TEST_F(NStoreTest, WalChainGrowsPerUpdate)
{
    std::uint8_t v[NStore::kFieldBytes] = {};
    EXPECT_EQ(store->walChainLength(0), 0u);
    for (int i = 0; i < 10; i++)
        store->updateTx(0, static_cast<std::uint64_t>(i), 0, v);
    EXPECT_EQ(store->walChainLength(0), 10u);
    // Client 1 has its own chain.
    EXPECT_EQ(store->walChainLength(1), 0u);
    store->updateTx(1, 3, 1, v);
    EXPECT_EQ(store->walChainLength(1), 1u);
}

TEST_F(NStoreTest, WalBeforeImageHoldsOldValue)
{
    std::uint8_t v1[NStore::kFieldBytes], v2[NStore::kFieldBytes];
    std::memset(v1, 0xaa, sizeof(v1));
    std::memset(v2, 0xbb, sizeof(v2));
    store->updateTx(0, 7, 2, v1);
    store->updateTx(0, 7, 2, v2);
    // The most recent WAL node must hold v1 as the before image:
    // recover it by walking the chain (head = latest).
    // (The chain head is private; verify indirectly: after the two
    // updates the tuple holds v2 and the chain has two nodes.)
    std::uint8_t r[NStore::kFieldBytes];
    store->readTx(0, 7, 2, r);
    EXPECT_EQ(r[0], 0xbb);
    EXPECT_EQ(store->walChainLength(0), 2u);
}

TEST_F(NStoreTest, TvarakInvariantsAfterUpdates)
{
    std::uint8_t v[NStore::kFieldBytes];
    Rng rng(9);
    for (int i = 0; i < 500; i++) {
        std::memset(v, static_cast<int>(i & 0xff), sizeof(v));
        store->updateTx(i % 2, rng.nextBounded(256),
                        rng.nextBounded(NStore::kFields), v);
    }
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

TEST(NStoreDriver, MixFractions)
{
    EXPECT_DOUBLE_EQ(
        NStoreWorkload::updateFraction(NStoreWorkload::Mix::UpdateHeavy),
        0.9);
    EXPECT_DOUBLE_EQ(
        NStoreWorkload::updateFraction(NStoreWorkload::Mix::Balanced),
        0.5);
    EXPECT_DOUBLE_EQ(
        NStoreWorkload::updateFraction(NStoreWorkload::Mix::ReadHeavy),
        0.1);
}

TEST(NStoreDriver, RunsToCompletion)
{
    MemorySystem mem(test::smallConfig(), designOf(DesignKind::Baseline));
    DaxFs fs(mem);
    auto store = std::make_shared<NStore>(mem, fs, nullptr, 512, 256, 2);
    NStoreWorkload::Params p;
    p.mix = NStoreWorkload::Mix::Balanced;
    p.txPerClient = 1000;
    NStoreWorkload w0(mem, store, 0, p);
    NStoreWorkload w1(mem, store, 1, p);
    w0.setup();
    w1.setup();
    bool a = true, b = true;
    while (a || b) {
        if (a)
            a = w0.step();
        if (b)
            b = w1.step();
    }
    EXPECT_GT(store->walChainLength(0), 0u);
}

}  // namespace
}  // namespace tvarak
