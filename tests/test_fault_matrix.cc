/**
 * @file
 * Fault-injection matrix: every firmware bug class against every
 * application substrate under TVARAK — detection on first read,
 * recovery to the acknowledged data, and restored at-rest invariants.
 * This is the end-to-end statement of the paper's coverage claim
 * ("updating redundancy for every write and verifying
 * system-checksums for every read").
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>

#include "apps/redis/redis.hh"
#include "apps/trees/pmem_map.hh"
#include "pmemlib/pmem_pool.hh"
#include "redundancy/scheme.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

enum class Bug { LostWrite, MisdirectedWrite, MisdirectedRead };

const char *
bugName(Bug b)
{
    switch (b) {
      case Bug::LostWrite:        return "LostWrite";
      case Bug::MisdirectedWrite: return "MisdirectedWrite";
      case Bug::MisdirectedRead:  return "MisdirectedRead";
    }
    return "?";
}

class FaultMatrix
    : public ::testing::TestWithParam<std::tuple<Bug, MapKind>>
{};

TEST_P(FaultMatrix, DetectAndRecover)
{
    auto [bug, kind] = GetParam();
    MemorySystem mem(test::smallConfig(), DesignKind::Tvarak);
    DaxFs fs(mem);
    PmemPool pool(mem, fs, "p", 4ull << 20, nullptr, 1);
    auto map = makeMap(kind, mem, pool, 48);

    // Populate several keys so the tree has structure around the
    // victim, then pick one value line to attack.
    std::uint8_t value[48];
    for (std::uint64_t k = 0; k < 64; k++) {
        std::memset(value, static_cast<int>('a' + k % 26),
                    sizeof(value));
        map->insert(0, k, value);
    }
    mem.flushAll();

    const std::uint64_t victim_key = 29;
    Addr vaddr = map->valueAddr(0, victim_key);
    ASSERT_NE(vaddr, 0u);
    Addr paddr;
    bool is_nvm;
    ASSERT_TRUE(mem.translate(vaddr, paddr, is_nvm) && is_nvm);
    Addr g = lineBase(paddr - kNvmPhysBase);
    auto &nvm = mem.nvmArray();
    auto &dimm = nvm.dimm(nvm.dimmOf(g));

    switch (bug) {
      case Bug::LostWrite:
        // Overwrite in place; the writeback is dropped.
        dimm.injectLostWrite(nvm.mediaAddrOf(g));
        std::memset(value, 'Z', sizeof(value));
        map->update(0, victim_key, value);
        mem.dropCaches();
        break;
      case Bug::MisdirectedWrite: {
        // A *different* line's writeback lands on our victim. Use a
        // line of the same DIMM from another page.
        std::uint64_t other_key = victim_key + 1;
        Addr other_v = map->valueAddr(0, other_key);
        Addr other_p;
        ASSERT_TRUE(mem.translate(other_v, other_p, is_nvm));
        Addr og = lineBase(other_p - kNvmPhysBase);
        while (nvm.dimmOf(og) != nvm.dimmOf(g)) {
            other_key++;
            other_v = map->valueAddr(0, other_key);
            ASSERT_NE(other_v, 0u);
            ASSERT_TRUE(mem.translate(other_v, other_p, is_nvm));
            og = lineBase(other_p - kNvmPhysBase);
        }
        dimm.injectMisdirectedWrite(nvm.mediaAddrOf(og),
                                    nvm.mediaAddrOf(g));
        std::memset(value, 'Y', sizeof(value));
        map->update(0, other_key, value);
        mem.dropCaches();
        std::memset(value, 'Z', sizeof(value));  // expected for other
        break;
      }
      case Bug::MisdirectedRead: {
        // Reads of the victim line return the neighbouring line of
        // the same page once (same DIMM; different content, since the
        // neighbour holds an object header).
        Addr other = lineInPage(g) + 1 < kLinesPerPage
            ? g + kLineBytes
            : g - kLineBytes;
        dimm.injectMisdirectedRead(nvm.mediaAddrOf(g),
                                   nvm.mediaAddrOf(other));
        mem.dropCaches();
        break;
      }
    }

    // Reading the victim's value must return exactly what the
    // application last wrote, with the corruption detected.
    std::uint8_t expect[48];
    if (bug == Bug::LostWrite)
        std::memset(expect, 'Z', sizeof(expect));
    else
        std::memset(expect, static_cast<int>('a' + victim_key % 26),
                    sizeof(expect));
    std::uint8_t got[48] = {};
    ASSERT_TRUE(map->get(0, victim_key, got))
        << bugName(bug) << "/" << mapKindName(kind);
    EXPECT_EQ(std::memcmp(expect, got, sizeof(expect)), 0)
        << bugName(bug) << "/" << mapKindName(kind);
    EXPECT_GE(mem.stats().corruptionsDetected, 1u);

    // And the system is whole again.
    mem.flushAll();
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultMatrix,
    ::testing::Combine(::testing::Values(Bug::LostWrite,
                                         Bug::MisdirectedWrite,
                                         Bug::MisdirectedRead),
                       ::testing::Values(MapKind::CTree, MapKind::BTree,
                                         MapKind::RBTree)),
    [](const auto &info) {
        return std::string(bugName(std::get<0>(info.param))) +
            mapKindName(std::get<1>(info.param));
    });

/*
 * The same firmware bugs against every design: each detects at its own
 * granularity (or, for Baseline, detectably does not detect).
 *
 *   Tvarak            read-time: the fill verifies the DAX-CL checksum
 *                     and transparently recovers from parity.
 *   TxB-Page-Csums    quiesce-time: a page-granular scrub finds the
 *                     mismatch; repair is parity-based per page.
 *   Vilamb            as TxB-Page-Csums once its epoch is drained; the
 *                     test drains cache-hot before every flush so the
 *                     deferred checksums describe the acknowledged
 *                     bytes (faults inside an open epoch are the
 *                     design's documented window, see test_vilamb).
 *   TxB-Object-Csums  quiesce-time: the object-checksum sweep (plus
 *                     the parity cross-check) finds it; the design has
 *                     no locate-and-repair for mapped lines, so the
 *                     test restores from a pre-fault good copy.
 *   Baseline          never: reads serve wrong bytes silently, pinned
 *                     by corruptionsDetected == 0.
 *
 * Misdirected reads are transient — the bug corrupts a fill, not the
 * media — so no at-rest sweep can see them: only TVARAK's fill-time
 * verification catches the wrong bytes. For the other designs the test
 * pins silence AND that the at-rest state is clean once the polluted
 * cache copy is dropped.
 *
 * Observation reads go through mem.read at the value's address rather
 * than the map, so a corrupted line never feeds a tree traversal.
 */
class DesignMatrix
    : public ::testing::TestWithParam<std::tuple<Bug, DesignKind>>
{};

TEST_P(DesignMatrix, DetectionAtDesignGranularity)
{
    auto [bug, design] = GetParam();
    MemorySystem mem(test::smallConfig(), design);
    DaxFs fs(mem);
    auto scheme = mem.designObj().makeScheme(mem);
    PmemPool pool(mem, fs, "p", 4ull << 20, scheme.get(), 1);
    auto map = makeMap(MapKind::CTree, mem, pool, 48);
    int fd = fs.open("p");
    ASSERT_GE(fd, 0);

    std::uint8_t value[48];
    for (std::uint64_t k = 0; k < 64; k++) {
        std::memset(value, static_cast<int>('a' + k % 26),
                    sizeof(value));
        map->insert(0, k, value);
    }
    if (scheme != nullptr)
        scheme->drain(0);  // Vilamb: close the load epoch
    mem.flushAll();

    const std::uint64_t victim_key = 29;
    Addr vaddr = map->valueAddr(0, victim_key);
    ASSERT_NE(vaddr, 0u);
    Addr paddr;
    bool is_nvm;
    ASSERT_TRUE(mem.translate(vaddr, paddr, is_nvm) && is_nvm);
    Addr g = lineBase(paddr - kNvmPhysBase);
    auto &nvm = mem.nvmArray();
    auto &dimm = nvm.dimm(nvm.dimmOf(g));

    auto pageIdxOf = [&](Addr va) {
        Addr pa;
        bool nv;
        EXPECT_TRUE(mem.translate(va, pa, nv) && nv);
        for (std::size_t p = 0; p < fs.filePages(fd); p++)
            if (fs.filePage(fd, p) == pageBase(pa - kNvmPhysBase))
                return p;
        ADD_FAILURE() << "value page not in pool file";
        return std::size_t{0};
    };

    // Acknowledged contents, and a line-granular good copy for the
    // designs that detect but cannot locate-and-repair.
    std::uint8_t acked[48];
    std::uint8_t wk_acked[48] = {};
    std::memset(acked, static_cast<int>('a' + victim_key % 26),
                sizeof(acked));
    struct Saved {
        Addr vline;
        Addr global;
        std::uint8_t bytes[kLineBytes];
    };
    std::vector<Saved> saved;
    auto snapshot = [&](Addr va) {
        Saved s;
        s.vline = lineBase(va);
        Addr pa;
        bool nv;
        ASSERT_TRUE(mem.translate(s.vline, pa, nv) && nv);
        s.global = pa - kNvmPhysBase;
        mem.peek(s.vline, s.bytes, kLineBytes);
        saved.push_back(s);
    };
    auto restore = [&] {
        for (const Saved &s : saved) {
            nvm.rawWrite(s.global, s.bytes, kLineBytes);
            mem.refreshFromMedia(s.vline, kLineBytes);
        }
    };

    std::uint64_t wk = 0;  // misdirected write's redirected writer
    Addr wk_vaddr = 0;
    switch (bug) {
      case Bug::LostWrite:
        dimm.injectLostWrite(nvm.mediaAddrOf(g));
        std::memset(value, 'Z', sizeof(value));
        map->update(0, victim_key, value);
        // Cache-hot epoch close: Vilamb's deferred checksums must
        // describe the acknowledged bytes before the flush hits the
        // armed bug (draining later would read the corrupted media).
        if (scheme != nullptr)
            scheme->drain(0);
        mem.flushAll();
        std::memset(acked, 'Z', sizeof(acked));
        snapshot(vaddr);
        break;
      case Bug::MisdirectedWrite: {
        wk = victim_key + 1;
        wk_vaddr = map->valueAddr(0, wk);
        Addr wp;
        ASSERT_TRUE(mem.translate(wk_vaddr, wp, is_nvm));
        Addr og = lineBase(wp - kNvmPhysBase);
        while (nvm.dimmOf(og) != nvm.dimmOf(g)) {
            wk++;
            wk_vaddr = map->valueAddr(0, wk);
            ASSERT_NE(wk_vaddr, 0u);
            ASSERT_TRUE(mem.translate(wk_vaddr, wp, is_nvm));
            og = lineBase(wp - kNvmPhysBase);
        }
        dimm.injectMisdirectedWrite(nvm.mediaAddrOf(og),
                                    nvm.mediaAddrOf(g));
        std::memset(value, 'Y', sizeof(value));
        map->update(0, wk, value);
        if (scheme != nullptr)
            scheme->drain(0);  // cache-hot, as for lost writes
        mem.flushAll();
        std::memset(wk_acked, 'Y', sizeof(wk_acked));
        snapshot(vaddr);
        snapshot(wk_vaddr);
        break;
      }
      case Bug::MisdirectedRead: {
        Addr other = lineInPage(g) + 1 < kLinesPerPage
            ? g + kLineBytes
            : g - kLineBytes;
        dimm.injectMisdirectedRead(nvm.mediaAddrOf(g),
                                   nvm.mediaAddrOf(other));
        break;
      }
    }
    mem.dropCaches();

    // Cold observation read of the victim's payload.
    std::uint8_t got[48] = {};
    std::uint64_t before = mem.stats().corruptionsDetected;
    mem.read(0, vaddr, got, sizeof(got));
    bool observed_correct =
        std::memcmp(acked, got, sizeof(acked)) == 0;

    switch (design) {
      case DesignKind::Tvarak:
        // Detected at the fill and transparently recovered.
        EXPECT_TRUE(observed_correct) << bugName(bug);
        EXPECT_GT(mem.stats().corruptionsDetected, before)
            << bugName(bug);
        if (wk_vaddr != 0) {
            mem.read(0, wk_vaddr, got, sizeof(got));
            EXPECT_EQ(std::memcmp(wk_acked, got, sizeof(got)), 0);
        }
        mem.flushAll();
        EXPECT_EQ(fs.scrub(false), 0u);
        EXPECT_EQ(fs.verifyParity(), 0u);
        break;
      case DesignKind::TxBPageCsums:
      case DesignKind::Vilamb: {
        // Vilamb's epoch was drained at every injection boundary, so
        // both behave as the page-checksum machine model here.
        // Silent at read time...
        EXPECT_FALSE(observed_correct)
            << bugName(bug);
        EXPECT_EQ(mem.stats().corruptionsDetected, before);
        if (bug == Bug::MisdirectedRead) {
            // ...and gone before any sweep can run: at-rest is clean.
            mem.dropCaches();
            EXPECT_EQ(fs.scrub(false), 0u);
        } else {
            // ...caught at page granularity at the next quiesce.
            EXPECT_GT(fs.scrubPage(fd, pageIdxOf(vaddr), false), 0u)
                << bugName(bug);
            fs.scrubPage(fd, pageIdxOf(vaddr), true);
            if (wk_vaddr != 0)
                fs.scrubPage(fd, pageIdxOf(wk_vaddr), true);
            EXPECT_EQ(fs.scrubPage(fd, pageIdxOf(vaddr), false), 0u);
            mem.dropCaches();
        }
        mem.read(0, vaddr, got, sizeof(got));
        EXPECT_EQ(std::memcmp(acked, got, sizeof(got)), 0)
            << bugName(bug);
        EXPECT_EQ(fs.verifyParity(), 0u);
        break;
      }
      case DesignKind::TxBObjectCsums: {
        EXPECT_FALSE(observed_correct)
            << bugName(bug);
        EXPECT_EQ(mem.stats().corruptionsDetected, before);
        if (bug == Bug::MisdirectedRead) {
            mem.dropCaches();
            EXPECT_EQ(pool.verifyObjects(), 0u);
        } else {
            // Caught at object granularity by the quiesce sweep.
            mem.dropCaches();
            EXPECT_GT(pool.verifyObjects() + fs.verifyParity(), 0u)
                << bugName(bug);
            restore();
            EXPECT_EQ(pool.verifyObjects(), 0u);
        }
        mem.read(0, vaddr, got, sizeof(got));
        EXPECT_EQ(std::memcmp(acked, got, sizeof(got)), 0)
            << bugName(bug);
        EXPECT_EQ(fs.verifyParity(), 0u);
        break;
      }
      case DesignKind::Baseline:
        // Pinned: wrong bytes served, nothing ever notices.
        EXPECT_FALSE(observed_correct)
            << bugName(bug);
        EXPECT_EQ(mem.stats().corruptionsDetected, 0u);
        if (bug == Bug::MisdirectedRead)
            mem.dropCaches();
        else
            restore();
        mem.read(0, vaddr, got, sizeof(got));
        EXPECT_EQ(std::memcmp(acked, got, sizeof(got)), 0)
            << bugName(bug);
        EXPECT_EQ(mem.stats().corruptionsDetected, 0u);
        break;
    }

    // The map itself survived: the victim is still reachable with its
    // acknowledged value.
    std::uint8_t final_got[48] = {};
    ASSERT_TRUE(map->get(0, victim_key, final_got)) << bugName(bug);
    EXPECT_EQ(std::memcmp(acked, final_got, sizeof(acked)), 0)
        << bugName(bug);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignMatrix,
    ::testing::Combine(::testing::Values(Bug::LostWrite,
                                         Bug::MisdirectedWrite,
                                         Bug::MisdirectedRead),
                       ::testing::Values(DesignKind::Baseline,
                                         DesignKind::Tvarak,
                                         DesignKind::TxBObjectCsums,
                                         DesignKind::TxBPageCsums,
                                         DesignKind::Vilamb)),
    [](const auto &info) {
        std::string d = designName(std::get<1>(info.param));
        std::string out = std::string(bugName(std::get<0>(info.param)));
        for (char c : d)
            if (c != '-')
                out.push_back(c);
        return out;
    });

TEST(FaultRedis, LostWriteOnHashtableEntry)
{
    MemorySystem mem(test::smallConfig(), DesignKind::Tvarak);
    DaxFs fs(mem);
    PmemPool pool(mem, fs, "redis", 8ull << 20, nullptr, 1);
    RedisStore store(mem, pool, 8, 64);
    char key[16];
    std::snprintf(key, sizeof(key), "key:%011d", 7);
    std::uint64_t v1 = 0x1111;
    store.set(0, key, &v1);
    mem.flushAll();

    // Lose the next write of every line of every heap page — brute
    // force, but guarantees we hit the entry no matter where it lives.
    std::uint64_t v2 = 0x2222;
    int fd = fs.open("redis");
    auto &nvm = mem.nvmArray();
    for (std::size_t p = 0; p < fs.filePages(fd); p++) {
        Addr page = fs.filePage(fd, p);
        for (std::size_t l = 0; l < kLinesPerPage; l++) {
            nvm.dimm(nvm.dimmOf(page)).injectLostWrite(
                nvm.mediaAddrOf(page + l * kLineBytes));
        }
    }
    store.set(0, key, &v2);
    mem.dropCaches();

    std::uint64_t r = 0;
    ASSERT_TRUE(store.get(0, key, &r));
    EXPECT_EQ(r, 0x2222u) << "every lost write recovered from parity";
    EXPECT_GE(mem.stats().corruptionsDetected, 1u);
    // Disarm the un-triggered injections, then let a repairing scrub
    // mop up any latent lost writes on lines the application never
    // re-read (the background-scrubbing role of Section II).
    for (std::size_t d = 0; d < nvm.numDimms(); d++)
        nvm.dimm(d).clearInjectedBugs();
    mem.flushAll();
    fs.scrub(true);
    EXPECT_EQ(fs.scrub(false), 0u);
    EXPECT_EQ(fs.verifyParity(), 0u);
}

}  // namespace
}  // namespace tvarak
