/**
 * @file
 * Functional tests for the Redis-equivalent store: set/get semantics,
 * incremental rehashing, transactionality, and TVARAK invariants.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "apps/redis/redis.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

class RedisTest : public ::testing::Test
{
  protected:
    RedisTest()
        : mem(test::smallConfig(), designOf(DesignKind::Tvarak)),
          fs(mem),
          pool(mem, fs, "redis", 8ull << 20, nullptr, 1),
          store(mem, pool, 8, 8)  // tiny table: rehash early and often
    {}

    void key(std::uint64_t id, char *out)
    {
        std::snprintf(out, RedisStore::kKeyBytes, "key:%011llu",
                      static_cast<unsigned long long>(id));
    }

    MemorySystem mem;
    DaxFs fs;
    PmemPool pool;
    RedisStore store;
};

TEST_F(RedisTest, GetMissingReturnsFalse)
{
    char k[16];
    std::uint64_t v = 0;
    key(1, k);
    EXPECT_FALSE(store.get(0, k, &v));
}

TEST_F(RedisTest, SetGetRoundtrip)
{
    char k[16];
    key(42, k);
    std::uint64_t w = 0x1234, r = 0;
    store.set(0, k, &w);
    ASSERT_TRUE(store.get(0, k, &r));
    EXPECT_EQ(r, w);
    EXPECT_EQ(store.used(), 1u);
}

TEST_F(RedisTest, SetOverwrites)
{
    char k[16];
    key(7, k);
    std::uint64_t v1 = 1, v2 = 2, r = 0;
    store.set(0, k, &v1);
    store.set(0, k, &v2);
    ASSERT_TRUE(store.get(0, k, &r));
    EXPECT_EQ(r, v2);
    EXPECT_EQ(store.used(), 1u);
}

TEST_F(RedisTest, SurvivesManyRehashes)
{
    // 8 initial buckets + 500 keys => several table doublings, all
    // performed incrementally while serving requests.
    char k[16];
    std::uint64_t r;
    for (std::uint64_t id = 0; id < 500; id++) {
        std::uint64_t v = id * 3 + 1;
        key(id, k);
        store.set(0, k, &v);
    }
    EXPECT_EQ(store.used(), 500u);
    for (std::uint64_t id = 0; id < 500; id++) {
        key(id, k);
        ASSERT_TRUE(store.get(0, k, &r)) << "key " << id;
        EXPECT_EQ(r, id * 3 + 1);
    }
}

TEST_F(RedisTest, GetsDriveRehashForward)
{
    char k[16];
    std::uint64_t v = 9, r;
    for (std::uint64_t id = 0; id < 64; id++) {
        key(id, k);
        store.set(0, k, &v);
    }
    ASSERT_TRUE(store.rehashing());
    // Issue gets only; the incremental rehash must complete anyway.
    for (int i = 0; i < 200 && store.rehashing(); i++) {
        key(static_cast<std::uint64_t>(i) % 64, k);
        (void)store.get(0, k, &r);
    }
    EXPECT_FALSE(store.rehashing())
        << "gets perform rehash steps, as in Redis";
}

TEST_F(RedisTest, GetsCommitTransactions)
{
    char k[16];
    key(1, k);
    std::uint64_t v = 5;
    store.set(0, k, &v);
    std::uint64_t commits_before = mem.stats().txCommits;
    std::uint64_t r;
    (void)store.get(0, k, &r);
    EXPECT_EQ(mem.stats().txCommits, commits_before + 1)
        << "Redis gets run inside transactions (paper Section IV-B)";
}

TEST_F(RedisTest, DelRemovesKeys)
{
    char k[16];
    std::uint64_t v = 3, r;
    key(1, k);
    EXPECT_FALSE(store.del(0, k)) << "del of a missing key";
    store.set(0, k, &v);
    EXPECT_EQ(store.used(), 1u);
    EXPECT_TRUE(store.del(0, k));
    EXPECT_EQ(store.used(), 0u);
    EXPECT_FALSE(store.get(0, k, &r));
    // Chain integrity: delete the middle of a bucket chain.
    for (std::uint64_t id = 0; id < 30; id++) {
        key(id, k);
        v = id;
        store.set(0, k, &v);
    }
    key(13, k);
    EXPECT_TRUE(store.del(0, k));
    for (std::uint64_t id = 0; id < 30; id++) {
        key(id, k);
        EXPECT_EQ(store.get(0, k, &r), id != 13) << id;
        if (id != 13) {
            EXPECT_EQ(r, id);
        }
    }
}

TEST_F(RedisTest, IncrSemantics)
{
    char k[16];
    key(5, k);
    EXPECT_EQ(store.incr(0, k, 7), 7) << "INCR creates at delta";
    EXPECT_EQ(store.incr(0, k, 3), 10);
    EXPECT_EQ(store.incr(0, k, -4), 6);
    std::uint64_t r = 0;
    ASSERT_TRUE(store.get(0, k, &r));
    EXPECT_EQ(r, 6u);
}

TEST_F(RedisTest, DelKeepsInvariants)
{
    char k[16];
    std::uint64_t v;
    for (std::uint64_t id = 0; id < 300; id++) {
        key(id, k);
        v = id;
        store.set(0, k, &v);
    }
    for (std::uint64_t id = 0; id < 300; id += 3) {
        key(id, k);
        EXPECT_TRUE(store.del(0, k));
    }
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

TEST_F(RedisTest, TvarakInvariantsAfterChurn)
{
    char k[16];
    Rng rng(3);
    for (int i = 0; i < 2000; i++) {
        std::uint64_t id = rng.nextBounded(300);
        std::uint64_t v = rng.next();
        key(id, k);
        store.set(0, k, &v);
    }
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

TEST(RedisWorkloadDriver, RunsToCompletion)
{
    MemorySystem mem(test::smallConfig(), designOf(DesignKind::Baseline));
    DaxFs fs(mem);
    RedisWorkload::Params p;
    p.mode = RedisWorkload::Mode::SetOnly;
    p.requests = 2000;
    p.keyspace = 512;
    p.poolBytes = 4ull << 20;
    RedisWorkload w(mem, fs, 0, nullptr, p);
    w.setup();
    while (w.step()) {}
    EXPECT_GT(w.store().used(), 0u);
    EXPECT_LE(w.store().used(), 512u);
}

}  // namespace
}  // namespace tvarak
