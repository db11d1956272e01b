/**
 * @file
 * Functional tests for the persistent maps (C-Tree, B-Tree, RB-Tree):
 * correctness against a reference std::map, structure invariants, and
 * at-rest redundancy invariants when running under TVARAK.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>

#include "apps/trees/pmem_map.hh"
#include "apps/trees/trees_impl.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

class MapTest : public ::testing::TestWithParam<MapKind>
{
  protected:
    void SetUp() override
    {
        mem = std::make_unique<MemorySystem>(test::smallConfig(),
                                             designOf(DesignKind::Tvarak));
        fs = std::make_unique<DaxFs>(*mem);
        pool = std::make_unique<PmemPool>(*mem, *fs, "p", 4ull << 20,
                                          nullptr, 1);
        map = makeMap(GetParam(), *mem, *pool, 64);
    }

    void fill(std::uint8_t *buf, std::uint64_t seed)
    {
        for (std::size_t i = 0; i < 64; i++)
            buf[i] = static_cast<std::uint8_t>(seed * 31 + i);
    }

    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<DaxFs> fs;
    std::unique_ptr<PmemPool> pool;
    std::unique_ptr<PmemMap> map;
};

TEST_P(MapTest, MissingKeyNotFound)
{
    std::uint8_t buf[64];
    EXPECT_FALSE(map->get(0, 42, buf));
    EXPECT_FALSE(map->update(0, 42, buf));
}

TEST_P(MapTest, InsertGetRoundtrip)
{
    std::uint8_t w[64], r[64];
    fill(w, 7);
    map->insert(0, 7, w);
    ASSERT_TRUE(map->get(0, 7, r));
    EXPECT_EQ(std::memcmp(w, r, 64), 0);
}

TEST_P(MapTest, InsertOverwritesDuplicate)
{
    std::uint8_t a[64], b[64], r[64];
    fill(a, 1);
    fill(b, 2);
    map->insert(0, 5, a);
    map->insert(0, 5, b);
    ASSERT_TRUE(map->get(0, 5, r));
    EXPECT_EQ(std::memcmp(b, r, 64), 0);
}

TEST_P(MapTest, UpdateInPlace)
{
    std::uint8_t a[64], b[64], r[64];
    fill(a, 3);
    fill(b, 4);
    map->insert(0, 9, a);
    ASSERT_TRUE(map->update(0, 9, b));
    ASSERT_TRUE(map->get(0, 9, r));
    EXPECT_EQ(std::memcmp(b, r, 64), 0);
}

TEST_P(MapTest, MatchesReferenceMapUnderRandomOps)
{
    Rng rng(17);
    std::map<std::uint64_t, std::uint64_t> ref;  // key -> seed
    std::uint8_t buf[64], r[64];
    for (int i = 0; i < 3000; i++) {
        std::uint64_t key = rng.nextBounded(500);  // force collisions
        double p = rng.nextDouble();
        if (p < 0.45) {
            fill(buf, key + static_cast<std::uint64_t>(i));
            map->insert(0, key, buf);
            ref[key] = key + static_cast<std::uint64_t>(i);
        } else if (p < 0.65 && !ref.empty()) {
            fill(buf, key * 3);
            bool found = map->update(0, key, buf);
            EXPECT_EQ(found, ref.count(key) == 1) << "key " << key;
            if (found)
                ref[key] = key * 3;
        } else if (p < 0.8) {
            bool found = map->erase(0, key);
            EXPECT_EQ(found, ref.count(key) == 1) << "key " << key;
            ref.erase(key);
        } else {
            bool found = map->get(0, key, r);
            ASSERT_EQ(found, ref.count(key) == 1) << "key " << key;
            if (found) {
                fill(buf, ref[key]);
                EXPECT_EQ(std::memcmp(buf, r, 64), 0) << "key " << key;
            }
        }
    }
    // Full verification sweep.
    for (const auto &[key, seed] : ref) {
        ASSERT_TRUE(map->get(0, key, r)) << "key " << key;
        fill(buf, seed);
        EXPECT_EQ(std::memcmp(buf, r, 64), 0) << "key " << key;
    }
}

TEST_P(MapTest, MonotonicAndReverseInsertions)
{
    std::uint8_t buf[64], r[64];
    for (std::uint64_t k = 0; k < 300; k++) {
        fill(buf, k);
        map->insert(0, k, buf);
    }
    for (std::uint64_t k = 1000; k > 700; k--) {
        fill(buf, k);
        map->insert(0, k, buf);
    }
    for (std::uint64_t k = 0; k < 300; k++) {
        ASSERT_TRUE(map->get(0, k, r));
        fill(buf, k);
        EXPECT_EQ(std::memcmp(buf, r, 64), 0);
    }
    EXPECT_FALSE(map->get(0, 500, r));
}

TEST_P(MapTest, TvarakInvariantsAfterWorkload)
{
    Rng rng(23);
    std::uint8_t buf[64];
    for (int i = 0; i < 2000; i++) {
        fill(buf, static_cast<std::uint64_t>(i));
        map->insert(0, rng.nextBounded(1000), buf);
    }
    mem->flushAll();
    EXPECT_EQ(fs->scrub(false), 0u);
    EXPECT_EQ(fs->verifyParity(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, MapTest,
                         ::testing::Values(MapKind::CTree,
                                           MapKind::BTree,
                                           MapKind::RBTree),
                         [](const auto &info) {
                             return std::string(
                                 mapKindName(info.param));
                         });

TEST_P(MapTest, EraseBasics)
{
    std::uint8_t buf[64], r[64];
    EXPECT_FALSE(map->erase(0, 1));
    fill(buf, 1);
    map->insert(0, 1, buf);
    EXPECT_TRUE(map->erase(0, 1));
    EXPECT_FALSE(map->get(0, 1, r));
    EXPECT_FALSE(map->erase(0, 1)) << "double erase";
    // Reinsert after erase works.
    fill(buf, 2);
    map->insert(0, 1, buf);
    ASSERT_TRUE(map->get(0, 1, r));
    EXPECT_EQ(std::memcmp(buf, r, 64), 0);
}

TEST_P(MapTest, EraseEverythingThenRebuild)
{
    std::uint8_t buf[64], r[64];
    for (std::uint64_t k = 0; k < 400; k++) {
        fill(buf, k);
        map->insert(0, k, buf);
    }
    // Erase in an interleaved order to exercise rebalancing.
    for (std::uint64_t k = 0; k < 400; k += 2)
        EXPECT_TRUE(map->erase(0, k)) << k;
    for (std::uint64_t k = 1; k < 400; k += 2)
        EXPECT_TRUE(map->erase(0, k)) << k;
    for (std::uint64_t k = 0; k < 400; k++)
        EXPECT_FALSE(map->get(0, k, r)) << k;
    // The structure is empty but healthy: rebuild on top of it.
    for (std::uint64_t k = 0; k < 100; k++) {
        fill(buf, k * 7);
        map->insert(0, k, buf);
    }
    for (std::uint64_t k = 0; k < 100; k++) {
        ASSERT_TRUE(map->get(0, k, r)) << k;
        fill(buf, k * 7);
        EXPECT_EQ(std::memcmp(buf, r, 64), 0) << k;
    }
}

TEST_P(MapTest, EraseKeepsRedundancyInvariants)
{
    Rng rng(31);
    std::uint8_t buf[64];
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 600; i++) {
        std::uint64_t k = rng.next();
        fill(buf, k);
        map->insert(0, k, buf);
        keys.push_back(k);
    }
    for (std::size_t i = 0; i < keys.size(); i += 2)
        EXPECT_TRUE(map->erase(0, keys[i]));
    mem->flushAll();
    EXPECT_EQ(fs->scrub(false), 0u);
    EXPECT_EQ(fs->verifyParity(), 0u);
}

TEST(RBTree, InvariantsHoldDuringErase)
{
    MemorySystem mem(test::smallConfig(), designOf(DesignKind::Baseline));
    DaxFs fs(mem);
    PmemPool pool(mem, fs, "p", 4ull << 20, nullptr, 1);
    RBTreeMap tree(mem, pool, 64);
    Rng rng(6);
    std::uint8_t buf[64] = {};
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 400; i++) {
        std::uint64_t k = rng.next();
        tree.insert(0, k, buf);
        keys.push_back(k);
    }
    for (std::size_t i = 0; i < keys.size(); i++) {
        ASSERT_TRUE(tree.erase(0, keys[i]));
        if (i % 25 == 0) {
            ASSERT_GT(tree.checkInvariants(0), 0) << "after " << i;
        }
    }
    EXPECT_GT(tree.checkInvariants(0), 0);
}

TEST(RBTree, InvariantsHoldDuringInserts)
{
    MemorySystem mem(test::smallConfig(), designOf(DesignKind::Baseline));
    DaxFs fs(mem);
    PmemPool pool(mem, fs, "p", 4ull << 20, nullptr, 1);
    RBTreeMap tree(mem, pool, 64);
    Rng rng(5);
    std::uint8_t buf[64] = {};
    for (int i = 0; i < 500; i++) {
        tree.insert(0, rng.next(), buf);
        if (i % 50 == 0) {
            ASSERT_GT(tree.checkInvariants(0), 0) << "after " << i;
        }
    }
    EXPECT_GT(tree.checkInvariants(0), 0);
}

}  // namespace
}  // namespace tvarak
