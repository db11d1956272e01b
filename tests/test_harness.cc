/**
 * @file
 * Harness tests: experiment runner semantics (setup/measure split,
 * interleaving, beforeMeasure), report normalization, and SimConfig
 * validation.
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

/** Trivial workload: N timed reads over a small DAX file. */
class PingWorkload final : public Workload
{
  public:
    PingWorkload(MemorySystem &mem, DaxFs &fs, int tid, int steps)
        : mem_(mem), fs_(fs), tid_(tid), steps_(steps)
    {}

    void setup() override
    {
        int fd = fs_.create("ping" + std::to_string(tid_),
                            4 * kPageBytes);
        base_ = fs_.daxMap(fd);
        // Setup work that must NOT be measured:
        for (int i = 0; i < 100; i++)
            mem_.write64(tid_, base_ + 8 * (i % 64), 1);
    }

    bool step() override
    {
        (void)mem_.read64(tid_, base_);
        stepsRun_++;
        return stepsRun_ < steps_;
    }

    int tid() const override { return tid_; }
    std::string name() const override { return "ping"; }
    int stepsRun() const { return stepsRun_; }

  private:
    MemorySystem &mem_;
    DaxFs &fs_;
    int tid_;
    int steps_;
    Addr base_ = 0;
    int stepsRun_ = 0;
};

TEST(Runner, SetupIsNotMeasured)
{
    auto make = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 3));
        return set;
    };
    RunResult r = runExperiment(test::smallConfig(),
                                designOf(DesignKind::Baseline), make);
    // 3 steps x 1 read + the flush tail; far fewer than the 100 setup
    // writes, which must have been excluded by the stats reset.
    EXPECT_LE(r.stats.l1Accesses, 10u);
    EXPECT_GE(r.stats.l1Accesses, 3u);
}

TEST(Runner, InterleavesUnevenWorkloads)
{
    auto make = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 2));
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 1, 7));
        return set;
    };
    RunResult r = runExperiment(test::smallConfig(),
                                designOf(DesignKind::Baseline), make);
    EXPECT_EQ(r.stats.l1Accesses, 9u + /*flush-path accesses*/ 0u);
}

TEST(Runner, BeforeMeasureHookRuns)
{
    bool ran = false;
    auto make = [&ran](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 1));
        set.beforeMeasure = [&ran](MemorySystem &) { ran = true; };
        return set;
    };
    (void)runExperiment(test::smallConfig(),
                        designOf(DesignKind::Baseline), make);
    EXPECT_TRUE(ran);
}

TEST(Runner, ResultFieldsConsistent)
{
    auto make = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 50));
        return set;
    };
    SimConfig cfg = test::smallConfig();
    RunResult r = runExperiment(cfg, designOf(DesignKind::Tvarak), make);
    EXPECT_EQ(r.design, &designOf(DesignKind::Tvarak));
    EXPECT_EQ(r.runtimeCycles, r.stats.runtimeCycles());
    EXPECT_NEAR(r.runtimeMs,
                static_cast<double>(r.runtimeCycles) /
                    (cfg.coreGhz * 1e6),
                1e-9);
    EXPECT_NEAR(r.energyMj, r.stats.totalEnergy() * 1e-9, 1e-12);
}

TEST(Report, NormalizationAgainstBaseline)
{
    FigureRow row;
    row.workload = "w";
    const Design &baseline = designOf(DesignKind::Baseline);
    const Design &tvarak = designOf(DesignKind::Tvarak);
    RunResult tv;
    tv.design = &tvarak;
    tv.runtimeCycles = 1030;
    RunResult base;
    base.design = &baseline;
    base.runtimeCycles = 1000;
    row.add(tv);
    row.add(base);
    // Rows keep report column order whatever the insertion order.
    ASSERT_EQ(row.results.size(), 2u);
    EXPECT_EQ(row.results[0].design, &baseline);
    EXPECT_DOUBLE_EQ(normRuntime(row, tvarak), 1.03);
    EXPECT_DOUBLE_EQ(normRuntime(row, baseline), 1.0);
}

TEST(Report, PaperDesignsInPaperOrder)
{
    const auto d = paperDesigns();
    ASSERT_EQ(d.size(), 4u);
    EXPECT_EQ(d[0]->kind(), DesignKind::Baseline);
    EXPECT_EQ(d[1]->kind(), DesignKind::Tvarak);
    EXPECT_EQ(d[2]->kind(), DesignKind::TxBObjectCsums);
    EXPECT_EQ(d[3]->kind(), DesignKind::TxBPageCsums);
}

TEST(Runner, FullyDeterministic)
{
    // Same config + same workload => bit-identical statistics. The
    // whole simulator is deterministic (no wall-clock, no host
    // randomness), which is what makes results reproducible and
    // resumable debugging possible.
    auto make = [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        WorkloadSet set;
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 0, 200));
        set.workloads.push_back(
            std::make_unique<PingWorkload>(mem, fs, 1, 100));
        return set;
    };
    SimConfig cfg = test::smallConfig();
    RunResult a = runExperiment(cfg, designOf(DesignKind::Tvarak), make);
    RunResult b = runExperiment(cfg, designOf(DesignKind::Tvarak), make);
    EXPECT_EQ(a.runtimeCycles, b.runtimeCycles);
    EXPECT_EQ(a.stats.l1Accesses, b.stats.l1Accesses);
    EXPECT_EQ(a.stats.llcMisses, b.stats.llcMisses);
    EXPECT_EQ(a.stats.nvmAccesses(), b.stats.nvmAccesses());
    EXPECT_DOUBLE_EQ(a.stats.totalEnergy(), b.stats.totalEnergy());
    EXPECT_EQ(a.stats.readVerifications, b.stats.readVerifications);
}

TEST(Config, ValidateCatchesBadGeometry)
{
    SimConfig cfg = test::smallConfig();
    cfg.llcBank.sizeBytes = 100;  // not divisible into ways of lines
    EXPECT_DEATH(cfg.validate(), "ways");

    cfg = test::smallConfig();
    cfg.tvarak.redundancyWays = 10;
    cfg.tvarak.diffWays = 6;  // no data ways left
    EXPECT_DEATH(cfg.validate(), "no data ways");

    cfg = test::smallConfig();
    cfg.nvm.dimms = 1;  // cross-DIMM parity impossible
    EXPECT_DEATH(cfg.validate(), "striped parity");
}

TEST(Config, DesignNamesAreStable)
{
    EXPECT_STREQ(designOf(DesignKind::Baseline).displayName(), "Baseline");
    EXPECT_STREQ(designOf(DesignKind::Tvarak).displayName(), "Tvarak");
    EXPECT_STREQ(designOf(DesignKind::TxBObjectCsums).displayName(),
                 "TxB-Object-Csums");
    EXPECT_STREQ(designOf(DesignKind::TxBPageCsums).displayName(),
                 "TxB-Page-Csums");
}

}  // namespace
}  // namespace tvarak
