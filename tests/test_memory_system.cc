/**
 * @file
 * MemorySystem tests: translation, functional read/write through the
 * hierarchy, persistence at flush, timing/energy accounting, and
 * cross-core coherence of the tag state.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

// Size of the DAX-backed test file, in pages; kColdPage is an index
// far enough in to be untouched (and thus uncached) by earlier tests.
constexpr std::size_t kFilePages = 64;
constexpr std::size_t kColdPage = 8;

class MemorySystemTest : public ::testing::Test
{
  protected:
    MemorySystemTest()
        : mem(test::smallConfig(), designOf(DesignKind::Baseline)), fs(mem)
    {}

    MemorySystem mem;
    DaxFs fs;
};

TEST_F(MemorySystemTest, DramRoundtrip)
{
    Addr a = mem.dramAlloc(256);
    std::uint8_t w[256], r[256];
    for (std::size_t i = 0; i < sizeof(w); i++)
        w[i] = static_cast<std::uint8_t>(i);
    mem.write(0, a, w, sizeof(w));
    mem.read(0, a, r, sizeof(r));
    EXPECT_EQ(std::memcmp(w, r, sizeof(w)), 0);
}

TEST_F(MemorySystemTest, DramAllocAlignment)
{
    Addr a = mem.dramAlloc(10, 64);
    Addr b = mem.dramAlloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
}

TEST_F(MemorySystemTest, UnmappedAccessDies)
{
    EXPECT_DEATH(mem.read64(0, kDaxBase), "unmapped");
}

TEST_F(MemorySystemTest, NvmRoundtripThroughDaxFile)
{
    int fd = fs.create("f", kFilePages * kPageBytes);
    Addr base = fs.daxMap(fd);
    std::uint8_t w[3 * kLineBytes];
    for (std::size_t i = 0; i < sizeof(w); i++)
        w[i] = static_cast<std::uint8_t>(i * 3);
    // Unaligned, line-crossing write.
    mem.write(1, base + 30, w, sizeof(w));
    std::uint8_t r[sizeof(w)];
    mem.read(1, base + 30, r, sizeof(r));
    EXPECT_EQ(std::memcmp(w, r, sizeof(w)), 0);
}

TEST_F(MemorySystemTest, FlushPersistsToMedia)
{
    int fd = fs.create("f", 16 * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.write64(0, base + 8, 0xdeadbeefcafef00dull);
    mem.flushAll();
    // At-rest media must now hold the value.
    std::uint64_t at_rest = 0;
    mem.nvmArray().rawRead(fs.filePage(fd, 0) + 8, &at_rest, 8);
    EXPECT_EQ(at_rest, 0xdeadbeefcafef00dull);
}

TEST_F(MemorySystemTest, WritebackOnlyOnEviction)
{
    int fd = fs.create("f", 16 * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.stats().reset();
    mem.write64(0, base, 42);
    // Dirty data sits in the caches: no NVM write yet.
    EXPECT_EQ(mem.stats().nvmDataWrites, 0u);
    std::uint64_t at_rest = ~0ull;
    mem.nvmArray().rawRead(fs.filePage(fd, 0), &at_rest, 8);
    EXPECT_EQ(at_rest, 0u);
    mem.flushAll();
    EXPECT_GE(mem.stats().nvmDataWrites, 1u);
}

TEST_F(MemorySystemTest, LoadLatencyChargedStoreCheap)
{
    int fd = fs.create("f", 16 * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.stats().reset();
    std::uint64_t v = mem.read64(0, base);  // cold NVM load
    (void)v;
    const SimConfig &cfg = mem.config();
    Cycles load_cycles = mem.stats().threadCycles[0];
    EXPECT_GE(load_cycles, cfg.nsToCycles(cfg.nvm.readNs));

    mem.stats().reset();
    mem.write64(0, base + kColdPage * kPageBytes, 1);  // cold store
    // Only a storeMissLatencyFactor fraction of the miss path stalls
    // the thread (store-queue draining), so a cold store is far
    // cheaper than a cold load.
    EXPECT_LT(mem.stats().threadCycles[0], load_cycles / 2)
        << "stores retire through the store buffer";
    EXPECT_GE(mem.stats().threadCycles[0], cfg.storeIssueCycles);
}

TEST_F(MemorySystemTest, CacheHitsAvoidNvm)
{
    int fd = fs.create("f", 16 * kPageBytes);
    Addr base = fs.daxMap(fd);
    (void)mem.read64(0, base);
    mem.stats().reset();
    for (int i = 0; i < 10; i++)
        (void)mem.read64(0, base);
    EXPECT_EQ(mem.stats().nvmDataReads, 0u);
    EXPECT_EQ(mem.stats().l1Misses, 0u);
}

TEST_F(MemorySystemTest, CrossCoreSharingKeepsValues)
{
    int fd = fs.create("f", 16 * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.write64(0, base, 7);           // core 0 writes
    EXPECT_EQ(mem.read64(1, base), 7u);  // core 1 reads
    mem.write64(1, base, 9);           // core 1 overwrites
    EXPECT_EQ(mem.read64(0, base), 9u);
    mem.flushAll();
    std::uint64_t at_rest = 0;
    mem.nvmArray().rawRead(fs.filePage(fd, 0), &at_rest, 8);
    EXPECT_EQ(at_rest, 9u);
}

TEST_F(MemorySystemTest, PeekSeesCurrentValueBeforeFlush)
{
    int fd = fs.create("f", 16 * kPageBytes);
    Addr base = fs.daxMap(fd);
    mem.write64(0, base + 128, 77);
    std::uint64_t v = 0;
    mem.peek(base + 128, &v, 8);
    EXPECT_EQ(v, 77u);
}

TEST_F(MemorySystemTest, PokeForbiddenOnNvm)
{
    int fd = fs.create("f", 16 * kPageBytes);
    Addr base = fs.daxMap(fd);
    std::uint8_t b = 0;
    EXPECT_DEATH(mem.poke(base, &b, 1), "forbidden");
}

TEST_F(MemorySystemTest, EnergyAccumulates)
{
    Addr a = mem.dramAlloc(kLineBytes);
    mem.stats().reset();
    mem.write64(0, a, 1);
    (void)mem.read64(0, a);
    EXPECT_GT(mem.stats().l1Energy, 0.0);
    EXPECT_GT(mem.stats().totalEnergy(), mem.stats().l1Energy);
}

TEST_F(MemorySystemTest, ComputeChecksumChargesCycles)
{
    mem.stats().reset();
    mem.computeChecksum(3, 3000);
    EXPECT_NEAR(static_cast<double>(mem.stats().threadCycles[1]),
                3000 / mem.config().swChecksumBytesPerCycle, 2.0)
        << "tid 3 maps to core 1 in the 2-core test config";
    EXPECT_EQ(mem.stats().swChecksumBytes, 3000u);
}

TEST_F(MemorySystemTest, RuntimeIsMaxOfThreadsAndDimms)
{
    Stats &s = mem.stats();
    s.reset();
    s.threadCycles[0] = 100;
    s.threadCycles[1] = 250;
    s.dimmBusyCycles[2] = 400;
    EXPECT_EQ(s.runtimeCycles(), 400u);
    s.threadCycles[1] = 999;
    EXPECT_EQ(s.runtimeCycles(), 999u);
}

TEST_F(MemorySystemTest, WorkingSetLargerThanCachesStillCorrect)
{
    int fd = fs.create("big", 512 * kPageBytes);  // 2 MB > LLC (256 KB)
    Addr base = fs.daxMap(fd);
    Rng rng(11);
    std::vector<std::uint64_t> expect(512 * kLinesPerPage);
    for (std::size_t i = 0; i < expect.size(); i++) {
        expect[i] = rng.next();
        mem.write64(0, base + i * kLineBytes, expect[i]);
    }
    // Lots of capacity evictions happened; values must survive.
    for (std::size_t i = 0; i < expect.size(); i += 37)
        EXPECT_EQ(mem.read64(1, base + i * kLineBytes), expect[i]);
    mem.flushAll();
    for (std::size_t i = 0; i < expect.size(); i += 53) {
        std::uint64_t at_rest = 0;
        mem.nvmArray().rawRead(
            fs.filePage(fd, i / kLinesPerPage) +
                (i % kLinesPerPage) * kLineBytes,
            &at_rest, 8);
        EXPECT_EQ(at_rest, expect[i]) << "line " << i;
    }
}

TEST(MemorySystemDesign, TvarakLosesLlcWays)
{
    SimConfig cfg = test::smallConfig();
    MemorySystem base(cfg, designOf(DesignKind::Baseline));
    MemorySystem tv(cfg, designOf(DesignKind::Tvarak));
    EXPECT_EQ(base.llcDataWays(), cfg.llcBank.ways);
    EXPECT_EQ(tv.llcDataWays(),
              cfg.llcBank.ways - cfg.tvarak.redundancyWays -
                  cfg.tvarak.diffWays);
}

}  // namespace
}  // namespace tvarak
