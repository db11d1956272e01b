/**
 * @file
 * Cold-start initialisation (DaxFs::initialize) against the timed
 * per-line initialisation it replaced in stream and fio.
 *
 * Under every registered design, a small cold stream and a small fio
 * seq-read run twice: once with the timed set-up, kept here as
 * test-local workloads, and once with the real workloads, which
 * initialise at rest. The dropCaches that closes set-up leaves only
 * media, current values, redundancy at rest and the engine's clean
 * state, so the measured Stats and the final NVM image must match.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/fio/fio.hh"
#include "apps/stream/stream.hh"
#include "harness/runner.hh"
#include "redundancy/raw_coverage.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

constexpr std::size_t kStreamChunk = 64 * 1024;
constexpr std::size_t kFioRegion = 128 * 1024;
constexpr int kThreads = 2;

/** StreamWorkload (Triad) with the timed per-line set-up it had
 *  before DaxFs::initialize. */
class TimedInitStream final : public Workload
{
  public:
    TimedInitStream(MemorySystem &mem, DaxFs &fs, int tid,
                    RedundancyScheme *scheme)
        : mem_(mem), fs_(fs), tid_(tid), scheme_(scheme)
    {}

    void
    setup() override
    {
        std::size_t data = 3 * kStreamChunk;
        std::size_t table = RawCoverage::tableBytes(data);
        int fd = fs_.create("stream" + std::to_string(tid_), data + table);
        Addr base = fs_.daxMap(fd);
        a_ = base;
        b_ = base + kStreamChunk;
        c_ = base + 2 * kStreamChunk;
        lines_ = kStreamChunk / kLineBytes;
        coverage_ = std::make_unique<RawCoverage>(mem_, scheme_, base,
                                                  data, base + data);
        double vals[8];
        for (std::size_t l = 0; l < lines_; l++) {
            for (int i = 0; i < 8; i++)
                vals[i] = static_cast<double>(l * 8 + i);
            mem_.write(tid_, a_ + l * kLineBytes, vals, sizeof(vals));
            coverage_->onWrite(tid_, a_ + l * kLineBytes, kLineBytes);
            for (int i = 0; i < 8; i++)
                vals[i] = 2.0 * static_cast<double>(l * 8 + i);
            mem_.write(tid_, b_ + l * kLineBytes, vals, sizeof(vals));
            coverage_->onWrite(tid_, b_ + l * kLineBytes, kLineBytes);
        }
    }

    bool
    step() override
    {
        double in1[8], in2[8], out[8];
        std::size_t end = std::min(next_ + kSlice, lines_);
        for (; next_ < end; next_++) {
            Addr off = next_ * kLineBytes;
            mem_.read(tid_, a_ + off, in1, sizeof(in1));
            mem_.read(tid_, b_ + off, in2, sizeof(in2));
            for (int i = 0; i < 8; i++)
                out[i] = in2[i] + 3.0 * in1[i];
            mem_.compute(tid_, 16);
            mem_.write(tid_, c_ + off, out, sizeof(out));
            coverage_->onWrite(tid_, c_ + off, kLineBytes);
        }
        return next_ < lines_;
    }

    int tid() const override { return tid_; }
    std::string name() const override { return "timed-init-stream"; }

    static constexpr std::size_t kSlice = 256;

  private:
    MemorySystem &mem_;
    DaxFs &fs_;
    int tid_;
    RedundancyScheme *scheme_;
    Addr a_ = 0, b_ = 0, c_ = 0;
    std::size_t lines_ = 0;
    std::size_t next_ = 0;
    std::unique_ptr<RawCoverage> coverage_;
};

/** FioWorkload (SeqRead) with the timed per-line set-up it had before
 *  DaxFs::initialize. */
class TimedInitFioSeqRead final : public Workload
{
  public:
    TimedInitFioSeqRead(MemorySystem &mem, DaxFs &fs, int tid)
        : mem_(mem), fs_(fs), tid_(tid)
    {}

    void
    setup() override
    {
        std::size_t table = RawCoverage::tableBytes(kFioRegion);
        int fd = fs_.create("fio" + std::to_string(tid_),
                            kFioRegion + table);
        base_ = fs_.daxMap(fd);
        lines_ = kFioRegion / kLineBytes;
        std::uint8_t buf[kLineBytes];
        for (std::size_t l = 0; l < lines_; l++) {
            std::memset(buf, static_cast<int>(l & 0xff), sizeof(buf));
            mem_.write(tid_, base_ + l * kLineBytes, buf, sizeof(buf));
        }
    }

    bool
    step() override
    {
        std::uint8_t buf[kLineBytes];
        std::size_t end = std::min(next_ + kSlice, lines_);
        for (; next_ < end; next_++)
            mem_.read(tid_, base_ + next_ * kLineBytes, buf, kLineBytes);
        return next_ < lines_;
    }

    int tid() const override { return tid_; }
    std::string name() const override { return "timed-init-fio"; }

    static constexpr std::size_t kSlice = 256;

  private:
    MemorySystem &mem_;
    DaxFs &fs_;
    int tid_;
    Addr base_ = 0;
    std::size_t lines_ = 0;
    std::size_t next_ = 0;
};

/** kThreads workloads from @p make, closed by a dropCaches. */
template <typename Make>
WorkloadFactory
coldFactory(Make make)
{
    return [make](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = mem.designObj().makeScheme(mem);
        WorkloadSet set;
        for (int t = 0; t < kThreads; t++)
            set.workloads.push_back(make(mem, fs, t, scheme.get()));
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

WorkloadFactory
timedStream()
{
    return coldFactory([](MemorySystem &mem, DaxFs &fs, int t,
                          RedundancyScheme *scheme)
                           -> std::unique_ptr<Workload> {
        return std::make_unique<TimedInitStream>(mem, fs, t, scheme);
    });
}

WorkloadFactory
atRestStream()
{
    return coldFactory([](MemorySystem &mem, DaxFs &fs, int t,
                          RedundancyScheme *scheme)
                           -> std::unique_ptr<Workload> {
        StreamWorkload::Params p;
        p.kernel = StreamWorkload::Kernel::Triad;
        p.chunkBytes = kStreamChunk;
        p.sliceLines = TimedInitStream::kSlice;
        return std::make_unique<StreamWorkload>(mem, fs, t, scheme, p);
    });
}

WorkloadFactory
timedFio()
{
    return coldFactory([](MemorySystem &mem, DaxFs &fs, int t,
                          RedundancyScheme *)
                           -> std::unique_ptr<Workload> {
        return std::make_unique<TimedInitFioSeqRead>(mem, fs, t);
    });
}

WorkloadFactory
atRestFio()
{
    return coldFactory([](MemorySystem &mem, DaxFs &fs, int t,
                          RedundancyScheme *scheme)
                           -> std::unique_ptr<Workload> {
        FioWorkload::Params p;
        p.pattern = FioWorkload::Pattern::SeqRead;
        p.regionBytes = kFioRegion;
        p.sliceLines = TimedInitFioSeqRead::kSlice;
        return std::make_unique<FioWorkload>(mem, fs, t, scheme, p);
    });
}

/** One run's measured Stats and its final at-rest NVM image. */
struct ColdRun {
    Stats stats;
    std::vector<char> image;
};

ColdRun
runCold(const Design &design, const WorkloadFactory &make)
{
    char path[] = "/tmp/tvarak-coldinit-XXXXXX";
    int tmp = mkstemp(path);
    EXPECT_GE(tmp, 0);
    close(tmp);
    RunHooks hooks;
    // saveNvmImage flushes first; the runner's own flushAll then
    // finds nothing dirty, in both runs alike.
    hooks.beforeFlush = [&path](MemorySystem &mem) {
        EXPECT_TRUE(mem.saveNvmImage(path));
    };
    ColdRun out{runExperiment(test::smallConfig(), design, make, hooks)
                    .stats,
                {}};
    std::FILE *f = std::fopen(path, "rb");  // lint:allow(R7)
    EXPECT_NE(f, nullptr);
    char chunk[kPageBytes];
    for (std::size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;)
        out.image.insert(out.image.end(), chunk, chunk + n);
    std::fclose(f);
    std::remove(path);
    return out;
}

/** NVM-global page numbers where images @p a and @p b differ. An
 *  image (NvmArray::saveImage) is a 16-byte geometry header, then
 *  every DIMM's media in DIMM order. */
std::vector<std::size_t>
differingPages(const std::vector<char> &a, const std::vector<char> &b)
{
    constexpr std::size_t kHeader = 2 * sizeof(std::uint64_t);
    const SimConfig cfg = test::smallConfig();
    const std::size_t dimm_pages = cfg.nvm.dimmBytes / kPageBytes;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), kHeader), 0);
    std::vector<std::size_t> pages;
    for (std::size_t off = kHeader; off < a.size(); off += kPageBytes) {
        if (std::memcmp(a.data() + off, b.data() + off, kPageBytes) == 0)
            continue;
        std::size_t page = (off - kHeader) / kPageBytes;
        pages.push_back(page % dimm_pages * cfg.nvm.dimms +
                        page / dimm_pages);
    }
    return pages;
}

/**
 * Run @p timed and @p atRest under @p design; the measured Stats must
 * be identical, and so must the final images except where the timed
 * set-up left the superblock stripe's parity stale. That stripe holds
 * the first file's first pages. When the second file is created, the
 * superblock write re-encodes the stripe's parity from media. After
 * timed set-up the first file's lines there are still dirty in cache,
 * so the parity encodes zeros for them; after set-up at rest it
 * encodes their data. Only the TVARAK designs (diff updates at
 * writeback) and a scheme that is told of every write (stream under
 * TxB and Vilamb) bring the timed parity up to date later.
 */
void
expectSameColdRun(const Design &design, const WorkloadFactory &timed,
                  const WorkloadFactory &atRest, bool informsScheme)
{
    ColdRun before = runCold(design, timed);
    ColdRun after = runCold(design, atRest);
    EXPECT_EQ(statsDiff(before.stats, after.stats), "");
    ASSERT_EQ(before.image.size(), after.image.size());
    ASSERT_FALSE(before.image.empty());

    MemorySystem mem(test::smallConfig(), design);
    bool has_scheme = design.makeScheme(mem) != nullptr;
    std::vector<std::size_t> stale;
    if (!design.engineCoversDaxData() && !(informsScheme && has_scheme)) {
        const Layout &layout = mem.layout();
        Addr sb_page = layout.nthDataPage(0);
        for (std::size_t j = 0; j < layout.parityCount(); j++)
            stale.push_back(pageNumber(layout.parityPageOf(sb_page, j)));
    }
    EXPECT_EQ(differingPages(before.image, after.image), stale);
}

class ColdInit : public ::testing::TestWithParam<const Design *>
{};

TEST_P(ColdInit, StreamMatchesTimedInit)
{
    expectSameColdRun(*GetParam(), timedStream(), atRestStream(), true);
}

TEST_P(ColdInit, FioSeqReadMatchesTimedInit)
{
    expectSameColdRun(*GetParam(), timedFio(), atRestFio(), false);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ColdInit, ::testing::ValuesIn(allRegisteredDesigns()),
    [](const ::testing::TestParamInfo<const Design *> &info) {
        return test::paramName(info.param);
    });

//
// Preconditions: each breach panics.
//

class ColdInitDeath : public ::testing::TestWithParam<const Design *>
{
  protected:
    static constexpr std::size_t kFilePages = 8;

    ColdInitDeath() : mem(test::smallConfig(), *GetParam()), fs(mem)
    {
        fd = fs.create("f", kFilePages * kPageBytes);
        page.assign(kPageBytes, 0x5a);
    }

    MemorySystem mem;
    DaxFs fs;
    int fd = -1;
    std::vector<std::uint8_t> page;
};

TEST_P(ColdInitDeath, UnmappedFile)
{
    EXPECT_DEATH(fs.initialize(fd, 0, page.data(), kPageBytes),
                 "unmapped");
}

TEST_P(ColdInitDeath, DirtyDataLine)
{
    Addr base = fs.daxMap(fd);
    mem.write64(0, base + 2 * kPageBytes + 3 * kLineBytes, 7);
    fs.initialize(fd, 0, page.data(), kPageBytes);  // other page: fine
    EXPECT_DEATH(fs.initialize(fd, 2 * kPageBytes, page.data(),
                               kPageBytes),
                 "dirty");
}

TEST_P(ColdInitDeath, DegradedArray)
{
    fs.daxMap(fd);
    mem.failDimm(mem.nvmArray().dimmOf(fs.filePage(fd, 5)));
    EXPECT_DEATH(fs.initialize(fd, 0, page.data(), kPageBytes),
                 "degraded");
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ColdInitDeath,
    ::testing::Values(&designOf(DesignKind::Baseline),
                      &designOf(DesignKind::Tvarak)),
    [](const ::testing::TestParamInfo<const Design *> &info) {
        return test::paramName(info.param);
    });

}  // namespace
}  // namespace tvarak
