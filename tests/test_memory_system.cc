/**
 * @file
 * MemorySystem tests: translation, functional read/write through the
 * hierarchy, persistence at flush, timing/energy accounting,
 * cross-core coherence of the tag state, and the current-value sync
 * that every dropCaches performs.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "fs/dax_fs.hh"
#include "mem/memory_system.hh"
#include "redundancy/rebuild.hh"
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

//
// Current-value sync: after every dropCaches the current-value store
// must equal what a whole-media copy would give — media bytes for
// every readable line, the reconstruction for every degraded one.
// (daxMap and daxUnmap drop first and then write metadata at rest, so
// the checks below follow a bare dropCaches.)
//

/** dropCaches, then compare every line's current value with media. */
::testing::AssertionResult
dropAndCompare(MemorySystem &mem)
{
    mem.dropCaches();
    NvmArray &nvm = mem.nvmArray();
    std::vector<std::uint8_t> cur(kPageBytes);
    std::vector<std::uint8_t> want(kPageBytes);
    for (Addr g = 0; g < nvm.totalBytes(); g += kPageBytes) {
        mem.peek(kNvmDirectBase + g, cur.data(), kPageBytes);
        nvm.rawRead(g, want.data(), kPageBytes);
        for (Addr off = 0; off < kPageBytes; off += kLineBytes) {
            if (nvm.lineDegraded(g + off))
                mem.reconstructLine(g + off, want.data() + off, false);
        }
        for (Addr off = 0; off < kPageBytes; off += kLineBytes) {
            if (std::memcmp(cur.data() + off, want.data() + off,
                            kLineBytes) != 0) {
                return ::testing::AssertionFailure()
                    << "current value of NVM line 0x" << std::hex
                    << g + off << " differs from "
                    << (nvm.lineDegraded(g + off) ? "its reconstruction"
                                                  : "media");
            }
        }
    }
    return ::testing::AssertionSuccess();
}

class MirrorSync : public ::testing::TestWithParam<const Design *>
{
  protected:
    static constexpr std::size_t kPages = 32;

    MirrorSync()
        : mem(test::smallConfig(), *GetParam()), fs(mem)
    {
        fd = fs.create("f", kPages * kPageBytes);
        base = fs.daxMap(fd);
        EXPECT_TRUE(dropAndCompare(mem));
    }

    /** Fill every line of the file with seed-derived values. */
    void
    writeAll(std::uint64_t seed)
    {
        for (std::size_t i = 0; i < kPages * kLinesPerPage; i++)
            mem.write64(0, base + i * kLineBytes, seed * 1000003 + i);
    }

    /** A file page on the same DIMM as page @p page, after it. */
    std::size_t
    sameDimmPage(std::size_t page)
    {
        NvmArray &nvm = mem.nvmArray();
        std::size_t other = page + 1;
        while (nvm.dimmOf(fs.filePage(fd, other)) !=
               nvm.dimmOf(fs.filePage(fd, page))) {
            other++;
        }
        return other;
    }

    MemorySystem mem;
    DaxFs fs;
    int fd = -1;
    Addr base = 0;
};

TEST_P(MirrorSync, StreamMapWriteUnmap)
{
    // STREAM-style: three arrays mapped, a and b initialised, c = a +
    // b, everything unmapped; every map and unmap drops the caches.
    constexpr std::size_t kLines = kPages * kLinesPerPage;
    int fa = fs.create("a", kPages * kPageBytes);
    int fb = fs.create("b", kPages * kPageBytes);
    int fc = fs.create("c", kPages * kPageBytes);
    Addr a = fs.daxMap(fa);
    EXPECT_TRUE(dropAndCompare(mem));
    Addr b = fs.daxMap(fb);
    EXPECT_TRUE(dropAndCompare(mem));
    Addr c = fs.daxMap(fc);
    EXPECT_TRUE(dropAndCompare(mem));
    for (std::size_t i = 0; i < kLines; i++) {
        mem.write64(0, a + i * kLineBytes, i);
        mem.write64(1, b + i * kLineBytes, 3 * i);
    }
    EXPECT_TRUE(dropAndCompare(mem));
    for (std::size_t i = 0; i < kLines; i++) {
        mem.write64(0, c + i * kLineBytes,
                    mem.read64(0, a + i * kLineBytes) +
                        mem.read64(0, b + i * kLineBytes));
    }
    for (int f : {fa, fb, fc}) {
        fs.daxUnmap(f);
        EXPECT_TRUE(dropAndCompare(mem));
    }
    c = fs.daxMap(fc);
    EXPECT_TRUE(dropAndCompare(mem));
    EXPECT_EQ(mem.read64(0, c + 7 * kLineBytes), 28u);
}

TEST_P(MirrorSync, LostWrite)
{
    NvmArray &nvm = mem.nvmArray();
    Addr target = fs.filePage(fd, 3) + 5 * kLineBytes;
    Addr vaddr = base + 3 * kPageBytes + 5 * kLineBytes;
    mem.write64(0, vaddr, 0x1111);
    mem.flushAll();
    mem.write64(0, vaddr, 0x2222);
    auto &dimm = nvm.dimm(nvm.dimmOf(target));
    dimm.injectLostWrite(nvm.mediaAddrOf(target));
    EXPECT_TRUE(dropAndCompare(mem));
    ASSERT_EQ(dimm.bugsTriggered(), 1u);
    (void)mem.read64(1, vaddr);  // stale, or recovered and repaired
    EXPECT_TRUE(dropAndCompare(mem));
}

TEST_P(MirrorSync, MisdirectedWrite)
{
    NvmArray &nvm = mem.nvmArray();
    std::size_t victim_idx = sameDimmPage(0);
    Addr intended = fs.filePage(fd, 0);
    Addr victim = fs.filePage(fd, victim_idx);
    mem.write64(0, base + victim_idx * kPageBytes, 0xAAAA);
    EXPECT_TRUE(dropAndCompare(mem));
    auto &dimm = nvm.dimm(nvm.dimmOf(intended));
    dimm.injectMisdirectedWrite(nvm.mediaAddrOf(intended),
                                nvm.mediaAddrOf(victim));
    mem.write64(0, base, 0xBBBB);
    EXPECT_TRUE(dropAndCompare(mem));
    ASSERT_EQ(dimm.bugsTriggered(), 1u);
    (void)mem.read64(1, base + victim_idx * kPageBytes);
    (void)mem.read64(1, base);
    EXPECT_TRUE(dropAndCompare(mem));
}

TEST_P(MirrorSync, MisdirectedRead)
{
    NvmArray &nvm = mem.nvmArray();
    std::size_t b_idx = sameDimmPage(2);
    Addr a = fs.filePage(fd, 2);
    Addr b = fs.filePage(fd, b_idx);
    mem.write64(0, base + 2 * kPageBytes, 0xCCCC);
    mem.write64(0, base + b_idx * kPageBytes, 0xDDDD);
    EXPECT_TRUE(dropAndCompare(mem));
    auto &dimm = nvm.dimm(nvm.dimmOf(a));
    dimm.injectMisdirectedRead(nvm.mediaAddrOf(a), nvm.mediaAddrOf(b));
    // Baseline installs b's bytes as a's current value; TVARAK
    // detects the mismatch and retries.
    (void)mem.read64(1, base + 2 * kPageBytes);
    ASSERT_EQ(dimm.bugsTriggered(), 1u);
    EXPECT_TRUE(dropAndCompare(mem));
}

TEST_P(MirrorSync, BitFlip)
{
    NvmArray &nvm = mem.nvmArray();
    writeAll(1);
    EXPECT_TRUE(dropAndCompare(mem));
    // A flip in a line nothing reads before the drop, then one in a
    // line that is read (Baseline consumes it, TVARAK corrects it).
    for (std::size_t page : {4u, 9u}) {
        Addr g = fs.filePage(fd, page) + 2 * kLineBytes;
        nvm.dimm(nvm.dimmOf(g)).injectBitFlip(nvm.mediaAddrOf(g), 3);
        if (page == 9)
            (void)mem.read64(0, base + page * kPageBytes + 2 * kLineBytes);
        EXPECT_TRUE(dropAndCompare(mem)) << "page " << page;
    }
}

TEST_P(MirrorSync, DimmFailReplaceRebuild)
{
    NvmArray &nvm = mem.nvmArray();
    writeAll(2);
    mem.flushAll();
    std::size_t dimm = nvm.dimmOf(fs.filePage(fd, 1));
    mem.write64(0, base + kPageBytes, 0x5555);  // cached when it dies
    mem.failDimm(dimm);
    writeAll(3);  // writebacks to the dead DIMM are dropped
    EXPECT_TRUE(dropAndCompare(mem));
    EXPECT_TRUE(dropAndCompare(mem));  // still degraded, nothing new
    mem.replaceDimm(dimm);
    RebuildEngine rebuild(mem, &fs);
    rebuild.step(4 * kPageBytes / kLineBytes);
    EXPECT_TRUE(dropAndCompare(mem));  // some lines above the watermark
    rebuild.runToCompletion();
    ASSERT_EQ(nvm.dimmState(dimm), NvmArray::DimmState::Healthy);
    EXPECT_TRUE(dropAndCompare(mem));
}

TEST_P(MirrorSync, DimmFailReplaceRebuildWithoutDrop)
{
    // No drop while degraded: the poisoned current values of lines
    // the rebuild does not rewrite must still be re-synced.
    NvmArray &nvm = mem.nvmArray();
    writeAll(6);
    std::size_t dimm = nvm.dimmOf(fs.filePage(fd, 2));
    mem.failDimm(dimm);
    mem.replaceDimm(dimm);
    RebuildEngine(mem, &fs).runToCompletion();
    ASSERT_EQ(nvm.dimmState(dimm), NvmArray::DimmState::Healthy);
    EXPECT_TRUE(dropAndCompare(mem));
}

TEST_P(MirrorSync, SaveAndLoadImage)
{
    char path[] = "/tmp/tvarak-mirror-XXXXXX";
    int tmp = mkstemp(path);
    ASSERT_GE(tmp, 0);
    close(tmp);
    writeAll(4);
    ASSERT_TRUE(mem.saveNvmImage(path));
    writeAll(5);
    EXPECT_TRUE(dropAndCompare(mem));  // no page is marked after this
    ASSERT_TRUE(mem.loadNvmImage(path));
    std::remove(path);
    EXPECT_TRUE(dropAndCompare(mem));
    EXPECT_EQ(mem.read64(0, base + 6 * kLineBytes), 4 * 1000003 + 6u);
}

TEST_P(MirrorSync, InitializeAtRest)
{
    // Cold-start initialisation writes media and current values at
    // rest; reads see the bytes at once, and a drop keeps them.
    std::vector<std::uint8_t> page(kPageBytes);
    for (std::size_t p = 0; p < kPages; p += 3) {
        for (std::size_t i = 0; i < kPageBytes; i++)
            page[i] = static_cast<std::uint8_t>(p * 7 + i);
        fs.initialize(fd, p * kPageBytes, page.data(), kPageBytes);
    }
    fs.initialize(fd, kPageBytes + 100, page.data(), 300);  // partial
    EXPECT_EQ(mem.read64(0, base + 6 * kPageBytes),
              0x31302f2e2d2c2b2aull);
    EXPECT_TRUE(dropAndCompare(mem));
    EXPECT_EQ(mem.read64(1, base + 9 * kPageBytes + 8),
              0x4e4d4c4b4a494847ull);
    if (GetParam()->maintainsMappedParity()) {
        mem.flushAll();
        EXPECT_EQ(fs.verifyParity(), 0u);
        EXPECT_EQ(fs.scrub(false), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, MirrorSync,
    ::testing::Values(&designOf(DesignKind::Baseline),
                      &designOf(DesignKind::Tvarak)),
    [](const ::testing::TestParamInfo<const Design *> &info) {
        return test::paramName(info.param);
    });

}  // namespace
}  // namespace tvarak
